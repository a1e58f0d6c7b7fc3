package wire

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSharedStatsJSONGolden pins the "shared" object of /v1/shards and
// /v1/fleet: every key, their order and the omitempty of the breaker
// fields. The type is core.SharedStats; since interior vectors live in
// the one store, "interior_evictions" and "interior_entries" are gone
// ("evictions" and "entries" count them) and nothing else moved.
func TestSharedStatsJSONGolden(t *testing.T) {
	full := SharedStats{
		Hits: 1, Misses: 2, Fills: 3, Waits: 4, Rejects: 5, Evictions: 6, Entries: 7, Bytes: 8,
		InteriorHits: 9, InteriorMisses: 10, InteriorBytes: 13,
		RemoteHits: 14, RemoteMisses: 15, RemotePuts: 16,
		RemoteBreaker: "half-open", RemoteTrips: 17, RemoteShortCircuits: 18,
	}
	const goldenFull = `{"hits":1,"misses":2,"fills":3,"waits":4,"rejects":5,"evictions":6,"entries":7,"bytes":8,` +
		`"interior_hits":9,"interior_misses":10,"interior_bytes":13,` +
		`"remote_hits":14,"remote_misses":15,"remote_puts":16,` +
		`"remote_breaker":"half-open","remote_trips":17,"remote_short_circuits":18}`
	const goldenZero = `{"hits":0,"misses":0,"fills":0,"waits":0,"rejects":0,"evictions":0,"entries":0,"bytes":0,` +
		`"interior_hits":0,"interior_misses":0,"interior_bytes":0,` +
		`"remote_hits":0,"remote_misses":0,"remote_puts":0}`
	// What the two-store parent wrote for the same counters.
	const parentFull = `{"hits":1,"misses":2,"fills":3,"waits":4,"rejects":5,"evictions":6,"entries":7,"bytes":8,` +
		`"interior_hits":9,"interior_misses":10,"interior_evictions":11,"interior_entries":12,"interior_bytes":13,` +
		`"remote_hits":14,"remote_misses":15,"remote_puts":16,` +
		`"remote_breaker":"half-open","remote_trips":17,"remote_short_circuits":18}`

	marshal := func(st SharedStats) string {
		t.Helper()
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got := marshal(full); got != goldenFull {
		t.Errorf("full snapshot:\n got %s\nwant %s", got, goldenFull)
	}
	if got := marshal(SharedStats{}); got != goldenZero {
		t.Errorf("zero snapshot:\n got %s\nwant %s", got, goldenZero)
	}
	without := strings.NewReplacer(`"interior_evictions":11,`, "", `"interior_entries":12,`, "").Replace(parentFull)
	if without != goldenFull {
		t.Errorf("differs from the parent by more than the two interior keys:\n got %s\nwant %s", goldenFull, without)
	}

	// The identity and the aggregation the handlers use.
	sum := SharedStatsOf(full)
	sum.Add(SharedStats{Evictions: 1, InteriorHits: 2, RemoteBreaker: "open"})
	if sum.Evictions != 7 || sum.InteriorHits != 11 || sum.RemoteBreaker != "open" || sum.Hits != 1 {
		t.Errorf("Add: %+v", sum)
	}
}

// TestKVStatsJSONGolden pins the "kv" object of /v1/fleet: every key
// and their order. The type is kv.Stats now; the bytes are what the
// former wire-side copy produced, plus the four counters it dropped.
func TestKVStatsJSONGolden(t *testing.T) {
	const golden = `{"gets":1,"hits":2,"puts":3,"rejects":4,"evictions":5,"entries":6,"bytes":7,"max_bytes":8,"max_entries":9}`
	// What the parent of the alias wrote for the same counters.
	const parent = `{"gets":1,"hits":2,"puts":3,"entries":6,"bytes":7}`

	b, err := json.Marshal(FleetStats{KV: KVStats{
		Gets: 1, Hits: 2, Puts: 3, Rejects: 4, Evictions: 5, Entries: 6, Bytes: 7, MaxBytes: 8, MaxEntries: 9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kv":`+golden+`,`) {
		t.Errorf("fleet report:\n got %s\nwant \"kv\":%s inside", b, golden)
	}
	without := strings.NewReplacer(`"rejects":4,"evictions":5,`, "", `,"max_bytes":8,"max_entries":9`, "").Replace(golden)
	if without != parent {
		t.Errorf("differs from the parent by more than the four added keys:\n got %s\nwant %s", without, parent)
	}
}
