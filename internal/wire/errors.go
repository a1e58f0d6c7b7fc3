package wire

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/httpbody"
)

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is a machine-readable error class (one of the Code*
	// constants), empty for the uncoded failures listed at CodeTable.
	Code string `json:"code,omitempty"`
}

// Machine-readable error codes carried in ErrorResponse.Code. Clients
// branch on these, never on the message; what a code means on the wire —
// status, hint, who may retry — is its CodeTable row and nothing else.
const (
	// CodeDeadline: the operation exceeded the server's request
	// deadline and was rolled back; the session still serves its
	// previous result, and the leaf vectors the aborted run finished
	// stay cached, so the retry resumes.
	CodeDeadline = "deadline"
	// CodeCanceled: the client went away before the recalculation
	// finished; rolled back like CodeDeadline.
	CodeCanceled = "canceled"
	// CodeSeqConflict: the request's Seq is below the last applied
	// number — a late duplicate of an abandoned operation.
	CodeSeqConflict = "seq_conflict"
	// CodeSessionCap: the catalog's shard is at its session limit; a
	// slot frees when a session is closed or the idle sweep reaps one.
	CodeSessionCap = "session_cap"
	// CodeCatalogQuarantined: the catalog's segment file failed
	// checksum verification and is refused until the daemon restarts
	// with a repaired file; other catalogs keep serving.
	CodeCatalogQuarantined = "catalog_quarantined"
	// CodeNothingToUndo: the session has no earlier state to revert to.
	CodeNothingToUndo = "nothing_to_undo"
	// CodeNodeDown: the router could not reach the member that owned the
	// request's shard. The member is marked down and the shard re-placed
	// BEFORE this is written, so the same request, sent again, reaches
	// the new owner: a creation succeeds there, and a session request is
	// answered CodeSessionNotFound (the session died with its node).
	// Hence no hint of its own.
	CodeNodeDown = "node_down"
	// CodeNoHealthyMembers: every fleet member is failing health checks;
	// nothing is placed until a probe round readmits one.
	CodeNoHealthyMembers = "no_healthy_members"
	// CodeSessionNotFound: the ID names a serving shard but no live
	// session — reaped by the idle sweep, closed, or dead with its node
	// (the shard's new owner never knew it).
	CodeSessionNotFound = "session_not_found"
)

// RetryClass says who may retry a failed request.
type RetryClass int

const (
	// RetryNever: the server made a deterministic decision; the error
	// surfaces.
	RetryNever RetryClass = iota
	// RetrySame: nothing was applied (or it was rolled back); the same
	// request, same Seq, may succeed later.
	RetrySame
	// RetryRecreate: the session is gone, so resending cannot help; a
	// caller that kept its operation log (client.FleetSession) recreates
	// the session and replays, anyone else sees the error.
	RetryRecreate
)

// CodeInfo is everything a code decides about its response.
type CodeInfo struct {
	// Status is the HTTP status the code travels under.
	Status int
	// RetryAfter is the Retry-After hint, whole seconds; 0 sends none
	// and leaves the pacing to the client's backoff schedule.
	RetryAfter time.Duration
	Class      RetryClass
}

// CodeTable is the serving edge's failure contract: a failure's code
// alone decides its status, its hint and who may retry it. Server and
// router write every coded failure through WriteError, the client
// classifies through ClassOf, and doc.go's table is tested against this
// one (TestCodeTableIsTheContract). Three failures of our own binaries
// carry no code — a request that does not validate (400), a malformed
// session ID or unknown catalog (404), a tuple that cannot be rendered
// (500) — and a hop that is not ours may answer anything; ClassOf is
// the single place a status class is consulted, for those.
var CodeTable = map[string]CodeInfo{
	CodeSessionNotFound:    {http.StatusNotFound, 0, RetryRecreate},
	CodeSeqConflict:        {http.StatusConflict, 0, RetryNever},
	CodeNothingToUndo:      {http.StatusConflict, 0, RetryNever},
	CodeSessionCap:         {http.StatusServiceUnavailable, 1 * time.Second, RetrySame},
	CodeCatalogQuarantined: {http.StatusServiceUnavailable, 60 * time.Second, RetrySame},
	CodeNodeDown:           {http.StatusServiceUnavailable, 0, RetrySame},
	CodeNoHealthyMembers:   {http.StatusServiceUnavailable, 2 * time.Second, RetrySame},
	CodeDeadline:           {http.StatusGatewayTimeout, 0, RetrySame},
	CodeCanceled:           {http.StatusGatewayTimeout, 0, RetrySame},
}

// ClassOf classifies a non-2xx response: by its code's row, or — for an
// absent or unknown code — by the status class (a 5xx may or may not
// have been applied and is safe to resend under its Seq; a 4xx is a
// decision).
func ClassOf(code string, status int) RetryClass {
	if info, ok := CodeTable[code]; ok {
		return info.Class
	}
	if status >= 500 {
		return RetrySame
	}
	return RetryNever
}

// WriteError answers a coded failure with its row's status and hint (a
// code without a row is a bug: net/http panics on its status 0).
func WriteError(w http.ResponseWriter, code string, err error) {
	info := CodeTable[code]
	if info.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(info.RetryAfter/time.Second)))
	}
	httpbody.WriteJSON(w, info.Status, ErrorResponse{Error: err.Error(), Code: code})
}
