package httpbody

import (
	"io"
	"strings"
	"testing"
)

// eofSpy records whether its reader was read to EOF — what net/http
// needs to see before it will reuse a connection.
type eofSpy struct {
	r      io.Reader
	n      int64
	sawEOF bool
}

func (s *eofSpy) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.n += int64(n)
	if err == io.EOF {
		s.sawEOF = true
	}
	return n, err
}

type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestDecodeJSONReadsToEOF(t *testing.T) {
	var v struct{ A int }
	// One-byte reads: the decoder returns as soon as the value closes,
	// with the newline (on the wire: the chunked terminator) still unread.
	body := &eofSpy{r: oneByte{strings.NewReader(`{"A":7}` + "\n")}}
	if err := DecodeJSON(body, &v); err != nil || v.A != 7 {
		t.Fatalf("v = %+v, err = %v", v, err)
	}
	if !body.sawEOF {
		t.Error("body not read to EOF after a successful decode")
	}

	body = &eofSpy{r: strings.NewReader(`{"A": nope` + strings.Repeat(" ", 5000))}
	if err := DecodeJSON(body, &v); err == nil {
		t.Fatal("malformed body decoded")
	}
	if !body.sawEOF {
		t.Error("body not drained after a failed decode")
	}
}

func TestDecodeJSONDrainIsBounded(t *testing.T) {
	var v struct{ A int }
	body := &eofSpy{r: io.MultiReader(strings.NewReader(`{"A":1}`), endless{})}
	if err := DecodeJSON(body, &v); err != nil || v.A != 1 {
		t.Fatalf("v = %+v, err = %v", v, err)
	}
	if body.n > 2*drainLimit {
		t.Errorf("read %d bytes of an endless body, limit is %d past the value", body.n, drainLimit)
	}
}

type oneByte struct{ r io.Reader }

func (o oneByte) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.r.Read(p[:1])
}
