// Package wire defines the message types of the visdbd serving
// protocol — the shared vocabulary of internal/server (which marshals
// them) and visdb/client (which consumes them). Everything is plain
// encoding/json over HTTP, with one exception: the tuple-less results
// read-back also has a binary representation (frame.go), negotiated by
// Accept, because a 16k-row picture as JSON cost more than computing
// it. The types deliberately carry only what a thin interaction client
// needs, so the wire cost of a response stays proportional to the
// display budget (top-k rows), never to the catalog size n.
//
// Float64 values round-trip exactly: encoding/json emits the shortest
// decimal representation that parses back to the same bits, which is
// what lets the end-to-end suite assert bitwise identity between a
// remote session and an in-process one. The only caveat is NaN/Inf
// (unrepresentable in JSON): displayed rows never carry them (NaN
// distances are uncolorable and excluded from display), and open range
// bounds travel as null instead of ±Inf.
package wire

import (
	"repro/internal/core"
	"repro/internal/kv"
)

// SessionOptions carries the engine options a client may set at
// session creation. Zero fields select the server's defaults.
type SessionOptions struct {
	// GridW and GridH are the per-window item grid dimensions.
	GridW int `json:"grid_w,omitempty"`
	GridH int `json:"grid_h,omitempty"`
	// PercentDisplayed, when > 0, fixes the displayed fraction.
	PercentDisplayed float64 `json:"percent_displayed,omitempty"`
}

// CreateSessionRequest opens a session: POST /v1/sessions.
type CreateSessionRequest struct {
	Catalog string         `json:"catalog"`
	Query   string         `json:"query"`
	Options SessionOptions `json:"options"`
}

// QueryRequest replaces the session's whole query:
// POST /v1/sessions/{id}/query.
type QueryRequest struct {
	Query string `json:"query"`
	// Seq is the idempotency sequence number; see RangeRequest.Seq.
	Seq uint64 `json:"seq"`
}

// RangeRequest moves a condition's range (the remote slider drag):
// POST /v1/sessions/{id}/range. The condition is addressed by
// attribute name; a null bound leaves that side open (the condition
// becomes >= or <=).
//
// Seq makes the operation idempotent and is required (a mutation
// without a positive Seq answers 400): the client numbers its mutating
// operations 1, 2, 3, … per session, and the server applies a request
// only when its Seq is past the last applied number (forward gaps are
// legal — an abandoned operation's number is simply skipped).
// Retransmitting the last applied Seq replays the stored response
// without re-running anything; a stale Seq answers CodeSeqConflict, so a
// late duplicate can never re-apply after later operations.
type RangeRequest struct {
	Attr string   `json:"attr"`
	Lo   *float64 `json:"lo"`
	Hi   *float64 `json:"hi"`
	Seq  uint64   `json:"seq"`
}

// WeightRequest updates a top-level predicate's weighting factor:
// POST /v1/sessions/{id}/weight. Pred indexes the query's top-level
// selection predicates in query order (the same order Results windows
// and PredicateInfos use).
type WeightRequest struct {
	Pred   int     `json:"pred"`
	Weight float64 `json:"weight"`
	// Seq is the idempotency sequence number; see RangeRequest.Seq.
	Seq uint64 `json:"seq"`
}

// PctRequest fixes the session's displayed fraction:
// POST /v1/sessions/{id}/pct. Pct must be in [0, 1]; 0 restores the
// automatic display budget (the window grid decides). Changing the
// fraction re-normalizes distances (the paper scales relevance to the
// displayed population), so the operation triggers a recalculation
// like any other edit — but it takes no snapshot: undo skips over it.
type PctRequest struct {
	Pct float64 `json:"pct"`
	// Seq is the idempotency sequence number; see RangeRequest.Seq.
	Seq uint64 `json:"seq"`
}

// UndoRequest reverts the last modification:
// POST /v1/sessions/{id}/undo.
type UndoRequest struct {
	// Seq is the idempotency sequence number; see RangeRequest.Seq.
	Seq uint64 `json:"seq"`
}

// Timings mirrors core.StageTimings in nanoseconds plus the cache and
// filter attribution counters. ScaleNS is the rank-before-scale
// stage applying the final monotonic transforms to the top-k
// survivors; RootCombineNS is the part of SelectNS (included in it)
// spent producing the raw root values the selection reads; Refined
// counts the rows whose root value that computed, and Pruned/Chunks the
// evaluator chunks with none of them, out of the total.
type Timings struct {
	BindNS        int64 `json:"bind_ns"`
	DistancesNS   int64 `json:"distances_ns"`
	EvaluateNS    int64 `json:"evaluate_ns"`
	SortNS        int64 `json:"sort_ns"`
	SelectNS      int64 `json:"select_ns"`
	RootCombineNS int64 `json:"root_combine_ns"`
	ScaleNS       int64 `json:"scale_ns"`
	ReduceNS      int64 `json:"reduce_ns"`
	TotalNS       int64 `json:"total_ns"`
	CacheHits     int   `json:"cache_hits"`
	CacheMisses   int   `json:"cache_misses"`
	SharedHits    int   `json:"shared_hits"`
	Refined       int   `json:"refined"`
	Pruned        int   `json:"pruned"`
	Chunks        int   `json:"chunks"`
	// SketchHits/SketchRescans attribute interior reuse: interior nodes
	// served from their cached raw combined vector, and how many of them
	// needed a pass over the vector to range them (the gather of their
	// code plane's crossing bucket, or a scan). The JSON names predate the code
	// plane and are frozen.
	SketchHits    int `json:"sketch_hits"`
	SketchRescans int `json:"sketch_rescans"`
	// SegsSkipped/Segs attribute the segment-stats pushdown of cold
	// file-backed scans: storage segments whose decode was skipped
	// because the catalog footer proved every row in range, out of the
	// segments the run's cold computes considered (zero on warm runs
	// and for pre-v3 catalogs).
	SegsSkipped int `json:"segs_skipped"`
	Segs        int `json:"segs"`
}

// TimingsOf converts the engine's stage timings — the single place the
// timing schema is mapped, shared by the serving handlers and the
// benchmark reports.
func TimingsOf(tm core.StageTimings) Timings {
	return Timings{
		BindNS:        tm.Bind.Nanoseconds(),
		DistancesNS:   tm.Distances.Nanoseconds(),
		EvaluateNS:    tm.Evaluate.Nanoseconds(),
		SortNS:        tm.Sort.Nanoseconds(),
		SelectNS:      tm.Select.Nanoseconds(),
		RootCombineNS: tm.RootCombine.Nanoseconds(),
		ScaleNS:       tm.Scale.Nanoseconds(),
		ReduceNS:      tm.Reduce.Nanoseconds(),
		TotalNS:       tm.Total.Nanoseconds(),
		CacheHits:     tm.CacheHits,
		CacheMisses:   tm.CacheMisses,
		SharedHits:    tm.SharedHits,
		Refined:       tm.Refined,
		Pruned:        tm.Pruned,
		Chunks:        tm.Chunks,
		SketchHits:    tm.SketchHits,
		SketchRescans: tm.SketchRescans,
		SegsSkipped:   tm.SegsSkipped,
		Segs:          tm.Segs,
	}
}

// Summary is the scalar state of a session after its latest
// recalculation — every mutating endpoint returns one, so a thin
// client can show the stats panel without fetching any rows.
type Summary struct {
	N          int     `json:"n"`
	Displayed  int     `json:"displayed"`
	NumResults int     `json:"num_results"`
	Recalcs    int     `json:"recalcs"`
	Timings    Timings `json:"timings"`
}

// SessionInfo is the response to session creation.
type SessionInfo struct {
	ID      string  `json:"id"`
	Catalog string  `json:"catalog"`
	Shard   int     `json:"shard"`
	Summary Summary `json:"summary"`
}

// Row is one ranked display item: GET /v1/sessions/{id}/results.
// Distance and Relevance are finite (displayed items are colorable by
// construction). Tuple, present only when ?tuples=1, renders the
// underlying row values per table (two entries for join pairs).
type Row struct {
	Item      int        `json:"item"`
	Distance  float64    `json:"distance"`
	Relevance float64    `json:"relevance"`
	Tuple     [][]string `json:"tuple,omitempty"`
}

// ResultsResponse carries the top-k ranked rows of the current result.
type ResultsResponse struct {
	Summary Summary `json:"summary"`
	Rows    []Row   `json:"rows"`
}

// SharedStats is the engine's shared-cache snapshot, on the wire as the
// engine declares it (JSON tags and Add live on core.SharedStats).
type SharedStats = core.SharedStats

// SharedStatsOf is the identity; bench/ names it.
func SharedStatsOf(st core.SharedStats) SharedStats { return st }

// ShardStats describes one shard: GET /v1/shards. Shared aggregates
// the per-catalog shared-cache counters of every catalog homed on the
// shard.
type ShardStats struct {
	Shard           int      `json:"shard"`
	Catalogs        []string `json:"catalogs"`
	Sessions        int      `json:"sessions"`
	SessionsCreated uint64   `json:"sessions_created"`
	// SessionsReaped counts sessions removed by the idle-TTL sweep
	// (abandoned clients whose pooled buffers were reclaimed).
	SessionsReaped uint64      `json:"sessions_reaped"`
	Recalcs        uint64      `json:"recalcs"`
	Shared         SharedStats `json:"shared"`
}

// CatalogInfo describes one served catalog: GET /v1/catalogs.
type CatalogInfo struct {
	Name  string `json:"name"`
	Shard int    `json:"shard"`
	// Tables is empty when the catalog is quarantined (its data never
	// loaded cleanly).
	Tables []string `json:"tables"`
	// Quarantined marks a catalog whose segment file failed checksum
	// verification; sessions on it answer 503 until the daemon restarts
	// with a repaired file.
	Quarantined bool `json:"quarantined,omitempty"`
}

// ShardHealth is one shard's live load in a HealthResponse — the
// router's drain logic watches Sessions to decide when a moved shard
// has quiesced on its old owner.
type ShardHealth struct {
	Shard    int      `json:"shard"`
	Sessions int      `json:"sessions"`
	Catalogs []string `json:"catalogs"`
}

// HealthResponse is a node's self-report: GET /v1/health on visdbd.
// The router's health checker polls it; anything other than a timely
// 200 marks the node down.
type HealthResponse struct {
	Status   string `json:"status"` // always "ok" when the node answers
	UptimeNS int64  `json:"uptime_ns"`
	Sessions int    `json:"sessions"` // total live sessions
	// Shards carries every serving shard's session count and homed
	// catalogs, in shard order.
	Shards []ShardHealth `json:"shards"`
	// Quarantined names catalogs refusing service over corrupt data.
	Quarantined []string `json:"quarantined,omitempty"`
	// PlacementEpoch/PlacementHash are set only when the responder is a
	// router (GET /v1/health on visdbrouter). The hash is a digest of
	// the shard→owner map; because placement is a pure function of the
	// healthy member set, any two routers probing the same fleet
	// converge to the same hash once their health views agree. The
	// epoch is router-local (incremented on every placement change) and
	// is NOT comparable across routers — compare hashes.
	PlacementEpoch uint64 `json:"placement_epoch,omitempty"`
	PlacementHash  string `json:"placement_hash,omitempty"`
	// HealthyMembers counts members currently passing health checks
	// (router responses only).
	HealthyMembers int `json:"healthy_members,omitempty"`
}

// FleetMember is one visdbd node as the router sees it:
// GET /v1/fleet.
type FleetMember struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Shards lists the shard indexes currently routed to this member.
	Shards []int `json:"shards"`
	// Sessions is the node's live session count from its last health
	// report (stale while the node is down).
	Sessions int `json:"sessions"`
}

// KVStats is the shared store's own snapshot inside a fleet report, on
// the wire as the store declares it (JSON tags live on kv.Stats);
// zero-valued when the fleet runs without a KV tier.
type KVStats = kv.Stats

// FleetStats aggregates the whole fleet: GET /v1/fleet on the router.
// Shared sums every member's per-shard shared-cache counters, so
// SharedHitRate = Shared.Hits / (Shared.Hits + Shared.Misses) is the
// fleet-wide probability that a leaf fill was answered without
// recomputation.
type FleetStats struct {
	Shards        int           `json:"shards"`
	Members       []FleetMember `json:"members"`
	Sessions      int           `json:"sessions"`
	Recalcs       uint64        `json:"recalcs"`
	Shared        SharedStats   `json:"shared"`
	SharedHitRate float64       `json:"shared_hit_rate"`
	KV            KVStats       `json:"kv"`
	// PlacementEpoch/PlacementHash mirror HealthResponse: the hash
	// identifies the current shard→owner map (equal across converged
	// routers), the epoch is this router's local change counter.
	PlacementEpoch uint64 `json:"placement_epoch"`
	PlacementHash  string `json:"placement_hash"`
}
