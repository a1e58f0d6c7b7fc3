// Package repro is a from-scratch Go reproduction of Keim, Kriegel &
// Seidl, "Supporting Data Mining of Large Databases by Visual Feedback
// Queries" (ICDE 1994) — the VisDB system.
//
// The public API lives in repro/visdb; the experiment harness that
// regenerates every figure and quantitative claim of the paper lives in
// cmd/visdbbench (visdbbench -list names the experiments, and each one
// prints the paper's expectation next to what it measured);
// micro-benchmarks for each experiment are in bench_test.go. What one
// feedback step costs, end to end and layer by layer, is measured by
// the repository benchmark in bench/ (bench/README.md), which is what a
// change is judged by. ROADMAP.md holds the system inventory and
// CHANGES.md the record of every change.
//
// # Building and testing
//
// The repository is a single Go module (module repro, Go ≥ 1.24) with
// no external dependencies:
//
//	go build ./... && go test ./...
//	go vet ./...
//	go test -bench=. -benchmem          # micro-benchmarks (bench_test.go)
//	go test -run '^$' -bench SortRanking -benchtime=1x .  # CI smoke
//	cd bench && go vet ./... && go test ./...             # the benchmark's own module
//	bash bench/run.sh --workload drag_inproc --seed 1994 --seconds 20 --trace 0   # one measured run
//
// # Ranking: selection instead of sorting
//
// The paper observes that "query processing time is dominated by the
// time needed for sorting". Since only GridW×GridH·(numPreds+1)
// distance values are ever displayed, the engine ranks by selection by
// default: internal/topk quickselects the display budget in expected
// O(n), and relevance normalization finds each leaf's reduction range
// by counting into monotone equal-width buckets and selecting inside the
// one the rank falls in (relevance/orderstats.go). Two engine options:
//
//   - Options.FullSort: exact O(n log n) ranking of every item (the
//     A-series ablations, exact quantiles; implied by Arrange2D).
//   - Options.Workers: bounds the worker pool that chunks
//     per-predicate distance computation across rows and sibling
//     predicates (0 → GOMAXPROCS). Parallel and serial runs produce
//     bit-identical results.
//
// # Incremental feedback loop
//
// The paper's interactivity (section 4.3) is a tight modify-recompute
// loop: drag a slider, recompute, repaint. Two layers make the
// recompute incremental while staying bit-identical to a cold run:
//
//   - core.RunCache (used by every session, or explicitly via
//     Engine.RunCached) keeps per-predicate leaf distance vectors
//     across reruns, keyed by the condition's structural signature —
//     table, attribute, operator, literals, distance function, but NOT
//     the weighting factor. A weight-only rerun recomputes no
//     distances; a single-slider drag recomputes at most one leaf, and
//     none when it returns to a range the loop has been at (an undo, a
//     bookmark). From its first reuse a leaf carries a quantile index
//     (sorted in linear time by the same buckets), so the
//     reduction-first normalization range for any weight is O(1).
//     Keys embed table row counts and the content epoch, so entries
//     never serve stale data and nothing is ever invalidated: the
//     store's entry cap and byte budget alone decide what is forgotten.
//   - relevance.Evaluate is a chunk-fused evaluator: normalization
//     ranges come from cheap scans and selections, then one chunked
//     pass per tree level scales children (leaf chunks in L1-resident
//     scratch), combines them, and folds range statistics — instead of
//     ~7 O(n) passes with an n-sized allocation per node. Output
//     buffers are pooled across reruns, and per-predicate window
//     vectors materialize lazily (windows only read the displayed
//     items). The pooling contract: a session Result is valid until
//     the next recalculation.
//
// BenchmarkReweight and BenchmarkSliderDrag track the interactive
// latencies across cheap-numeric, approximate-join and edit-distance
// workloads at n = 1e6.
//
// # Rank before scale: monotonic-transform-aware top-k with block pruning
//
// After the leaves are cached and the evaluation fused, a warm rerun
// on cheap predicates is bounded by the combination math itself: the
// root combine kernel's final scalar step — the geometric root
// (Πd^w)^(1/Σw) of OR, the Lp root, the weight-normalized division —
// the root's [0, Scale] re-normalization, and the full-array selection
// pass. All of those transforms are MONOTONE, and only k ≪ n values
// are ever displayed, so on the default selection path the engine now
// ranks the root's RAW combined values and applies the final
// transforms only to the top-k survivors (relevance.EvalOptions.
// DeferRoot → Result.RankRoot):
//
//   - The root combine runs chunk-on-demand with raw kernels (no
//     final root/division), streaming each chunk through a
//     threshold-seeded lexicographic (value, index) selector
//     (topk.StreamSelector).
//   - Block pruning: per-chunk lower bounds on the raw combined value
//     — folded from per-leaf chunk minima (relevance.LeafChunkStats,
//     cached next to the quantile index) through the monotone child
//     scalings — let the pass skip every chunk that provably cannot
//     beat the running k-th candidate. The session carries the
//     previous recalculation's k-th raw value as the seed threshold,
//     so a weight drag rejects candidates from its very first chunk;
//     the seed carries no item index, so on a selection saturated with
//     exact answers (seed 0, every chunk's bound 0) chunks start to
//     fall only once the selector holds k candidates under it and
//     installs an indexed bound — which it does at k+1, not at its
//     usual 2k compaction point (TestSeededSaturatedSelectionPrunes:
//     a carried seed never prunes less than no seed). A stale seed can
//     only cost a re-run of the selection, never correctness, and
//     query/range edits clear it.
//   - Tie resolution keeps the result bit-identical to
//     Options.FullSort: scaled-space ties (values clamped to Scale,
//     degenerate ranges, rounding collisions) order by item index, so
//     the cut computes the exact raw-domain preimage of the k-th
//     scaled value by monotone bisection (topk.SupWhere) and walks
//     indices ascending — a skipped chunk is provably inside the tie
//     class (unbounded preimage: the Scale clamp), provably outside
//     it, or gets materialized after all.
//   - Result.Combined() materializes the full scaled vector lazily
//     (Stats and exact-match aggregation still see exact values);
//     displays, wire responses and windows read the ranked prefix via
//     Result.DistanceOfRank and never force it.
//   - Result.Order holds the ranked prefix and nothing else on this
//     path — selectBudget entries, not a permutation of all N items:
//     every reader stops at the display budget, and Result.TopK(k)
//     extends the ranking from Combined for any deeper k. FullSort
//     (and the eager fallback for pathological weights) still list all
//     N.
//
// StageTimings.Scale times the survivor scaling, and Pruned/Chunks
// count the skipped combine chunks (also exposed over the wire).
// The identity property — bitwise-equal rows, distances, relevances
// and order against FullSort under randomized interaction scripts,
// clamp-boundary ties, zero/NaN distances and every combiner mode —
// is asserted by TestRankBeforeScaleMatchesFullSortScript,
// TestDeferredRankMatchesEagerSelection and the selection suite.
//
// # Columnar segments: catalogs larger than RAM
//
// internal/dataset stores every column as chunk-aligned segments of
// SegmentSize = 4096 values — the same chunk size the fused evaluator
// and the block-pruning pass already iterate in — behind a
// segment-reader interface with two backends:
//
//   - In-memory (the default): segments are plain slices; Append works.
//   - File-backed (dataset.WriteCatalogFile / OpenCatalogFile): a
//     write-once segment-catalog file (currently "VSEGCAT3"; streamed
//     with O(segment) memory, JSON footer mapping every
//     table/field/segment to its blob, per-field min/max stats, FNV-1a
//     content epoch). Reads go through mmap where available (linux) or
//     os.File.ReadAt everywhere else (OpenOptions.ForceReadAt forces
//     the fallback), into a bounded decoded-segment cache — resident
//     memory is O(cache budget), not O(catalog), and the format is
//     immutable (Append is rejected).
//
// The catalog epoch flows into every structural cache key (a single
// keying helper in internal/core builds all of them), so a regenerated
// file can never cross-serve another file's cached vectors; in-memory
// catalogs report epoch 0 and keep their row-count keying. Serving a
// catalog from disk is bitwise identical to serving it from memory —
// asserted by lockstep randomized-script replays over both backends
// under a deliberately tiny cache (TestDiskReplayBitIdentical,
// TestDiskCatalogReplayMatchesInMemory), race-clean in CI. visdbd
// accepts "name:path" catalog specs (-catalog-cache-mb bounds the
// decoded cache), visdbgen -format seg writes the files, and CSV ingest
// streams rows chunk-by-chunk with O(chunk) peak allocation.
//
// # Segment format v3: per-segment stats pushdown and codecs
//
// One writer, three readable versions: "VSEGCAT3" is the only layout
// the code can write; "VSEGCAT1" and "VSEGCAT2" files stay readable
// through both read backends, bit-identically, and the two checked-in
// files internal/dataset/testdata/mixed_v1.vseg and mixed_v2.vseg —
// written by the last v1/v2 writers before they were deleted — hold
// that promise (TestLegacyV1StillReadable,
// TestFormatVersionMatrixRoundTrip, TestLegacyV2FlipsStillDetected).
// v3 extends the footer and the blob encoding; the file shape is
// unchanged — blobs, then a JSON footer, then the 20-byte tail
// [footer CRC32C | footer length | "VSEGEND3"]:
//
//   - Per-segment statistics. Every numeric segment blob's footer
//     entry carries min/max (hex float strings — exact bits,
//     infinities survive JSON) and a count of unusable rows (nulls,
//     plus NaN entries of float columns), exposed through
//     dataset.SegmentStatser. The soundness contract: min/max bound
//     every usable value the segment decodes to under the
//     Value.AsFloat coercion, and stats that fail to parse are a typed
//     ErrCorruptSegment at open — never silently dropped pruning.
//   - Predicate pushdown. A cold file-backed range scan consults the
//     stats before decoding: a segment with stats, zero unusable rows
//     and [min, max] inside the query interval (strict bounds
//     honored) provably scores range distance exactly 0 on every row,
//     so the decode is skipped and the zero-filled distance range IS
//     the exact answer — results stay bit-identical by construction,
//     which is also why only the all-inside case is skipped (a
//     wholly-outside segment has per-row distances the footer cannot
//     reproduce). Skipped chunks' entries in the per-leaf chunk-stats
//     index are synthesized from the footer proof, so deferred-root
//     block pruning composes with the pushdown on the very first cold
//     run. The leaf keeps no attribute values, skipped or not: the
//     panel fields that show them read the catalog (see the cache
//     hierarchy below), so a skipped segment decodes only if a
//     displayed row lies in it.
//     StageTimings.SegsSkipped/Segs (wire: segs_skipped/segs)
//     attribute it; Options.NoSegmentStats is the ablation gate, and
//     TestPushdownLockstepReplay fails if the pushdown silently
//     deactivates (no segment skipped with stats on, or any skipped
//     with them off); bench/ reports dataset.segs_skipped_ratio and
//     dataset.cold_scan_ms.
//   - Segment codecs. Int and time blobs are delta-coded
//     (zigzag+uvarint over the word stream), float blobs
//     xor-with-previous coded, behind the decoded-segment LRU so
//     decode cost stays attributed to fileSource.decode; a codec is
//     kept only when strictly smaller than the raw payload, blob CRCs
//     cover the on-disk (compressed) bytes, and clustered columns
//     shrink the file measurably (TestCompressionShrinksClusteredFile;
//     bench/ reports dataset.file_bytes_per_row).
//
// # Incremental interior normalization
//
// With leaves cached and the root deferred, a warm rerun's remaining
// full-array pass was the interior nodes': every AND/OR node re-ran
// its combine pass just to re-derive its normalization range. Cached
// runs now keep a relevance.InteriorEntry per interior node — its raw
// combined vector plus a per-chunk equal-width histogram sketch of the
// combined values — keyed by a structural signature over the subtree
// (children's identities and effective weights, combiner options, NOT
// the node's own weight, so own-weight and sibling-weight drags reuse
// the entry; leaf identities are the leaves' full cache keys, which
// keeps De-Morganed negations and reweighted subqueries with colliding
// labels apart). A warm rerun serves the node's vector from the entry
// and localizes the order statistic its normalization needs to one
// histogram bucket, gathering candidates only from chunks whose bucket
// count is nonzero — an exactness guard falls back to the full scan
// whenever more than half the chunks would be touched, so the selected
// range is always exactly the full-scan range and results stay
// bit-identical (Options.NoInteriorSketch is the ablation gate).
// Entries live in the SharedCache's separate quarter-budget interior
// tier (the RunCache pins the ones its picture reads), so a second
// session's first run already takes the fast path.
// StageTimings.SketchHits/SketchRescans (and the wire timings)
// attribute it; TestInteriorSketchWarmRerunBitIdentical fails if the
// sketch silently deactivates and TestNoInteriorSketchDisables if the
// gate stops gating; what the sketch saves is bench/'s to say
// (relevance.sketch_hits_per_step, relevance.evaluate_ms_per_step).
//
// # Shared cache: serving many sessions on one catalog
//
// The predicate cache is one store, core.SharedCache, and a per-session
// pin set over it, core.RunCache. Concurrent sessions on the same
// catalog attach to the catalog's SharedCache (session.NewShared /
// visdb.NewSessionShared); a session that attaches none stands on a
// small one of its own (64 leaves under the default byte budget). A
// leaf is resolved in this order:
//
//	the session's pins  →  the SharedCache  →  recompute
//
// The store holds immutable leaf distance vectors and their promoted
// quantile indexes under structural keys, with singleflight fills (N
// sessions dragging the same slider compute a leaf once). Its rules:
//
//   - Nothing is invalidated. A range edit, an undo, a query
//     replacement leave the entries they walk away from where they are;
//     the entry cap and the byte budget push entries out of the cold
//     end, and nothing else drops one. Going back — the third move of
//     the paper's modify, look, go back loop — is therefore a hit, for
//     the session that left the range and for any other.
//   - A session pins the leaves (and interior entries) its live Result
//     and its run in flight read, and nothing else: the pins turn over
//     with the evaluation buffers, a successful run's replacing the
//     previous picture's, a failed run's dropped. Pins are pointers,
//     not copies. They keep a rerun at zero misses when the store has
//     meanwhile evicted the entry or its admission policy never took
//     it, and a pinned hit touches the store's entry so that a leaf a
//     session sits on does not age out under other sessions' fills.
//   - Eviction only ever unlinks entries: vectors are immutable, so
//     sessions holding them through their pins or a live Result are
//     unaffected (keys embed table names, row counts and the content
//     epoch, so no entry can be served stale).
//
// Everything downstream of the leaves — evaluation buffers, rankings,
// Results — stays session-private, so sessions remain single-goroutine
// state machines while the catalog tier is fully concurrent.
// TestConcurrentSharedSessionsMatchFreshEngine (run under -race in CI)
// asserts bitwise identity between shared-cache sessions and isolated
// fresh engines at every step of randomized concurrent scripts, and
// TestSharedSessionsReportSharedHits that the second session is served
// from the first one's leaves; bench/'s drag_inproc workload (two
// sessions on one SharedCache) measures the path.
//
// Admission into the shared tier is cost-aware (core.SharedOptions):
// only leaves whose measured compute time reaches AdmitMinCost
// (default ~1ms — edit-distance, join and subquery leaves) become
// resident, so a single session sweeping hundreds of slider positions
// over cheap numeric predicates cannot churn the byte budget. Rejected
// fills still serve their vector to the caller and to every
// singleflight waiter. NewSharedCache (the in-process constructor)
// admits everything; NewSharedCacheOpts applies the policy.
//
// The cache hierarchy — the leaf and interior tiers of a SharedCache,
// the kv server's resident set, the decoded-segment cache of a catalog
// file — stands on one store, internal/lru: a map ordered by recency under an entry cap
// and a byte budget, with one eviction rule: evict from the cold end
// while over either bound, and never the most recently used entry (so
// an entry larger than a whole budget stays, alone, until the next
// insert). Each tier keeps its own mutex and counters and only sets
// the bounds: SharedCache the SharedOptions cap and budget for leaves
// (an entry costs its vectors plus promoted indexes) and a quarter of
// both for interior entries; the kv server its -max-entries and
// -max-bytes-mb (an entry costs key plus value; one over the budget is
// refused before insert); the segment cache OpenOptions.CacheBytes, no
// cap. SharedStats.Evictions / InteriorEvictions count what the bounds
// pushed out, which is everything that ever left
// (TestDragStormStaysInsideTheBudget: 500 slider positions, resident
// bytes never over the budget, fills − evictions = entries throughout).
//
// A cached leaf is what a rerun reuses and nothing else: its raw
// distance vector (plus the signed one under Arrange2D), for a
// condition the O(1) scalars its slider shows (database min/max, query
// range), and from its first reuse the quantile index and chunk stats
// built from that vector. It holds no copy of the attribute column —
// at 200k rows that copy was a third of every indexed entry (1.6 of
// 4.8 MB) in every budget above. The two panel fields that show
// attribute values, PredicateInfos' first/last displayed and
// FirstLastOfColor, read the cells they need — at most the display
// budget — from the catalog through the Result's item space (the
// item's row of the predicate's table; NaN for nulls and the kinds
// without a numeric value), the same on memory, mmap and ReadAt
// catalogs and on pair spaces (TestPanelValuesComeFromTheCatalog).
// That is one Column.Value per displayed item: on a file-backed
// catalog whose segment cache cannot hold the displayed rows' segments
// each read decodes one, so size OpenOptions.CacheBytes for the panel
// if a UI renders it per step (internal/server never calls either).
// Likewise Result.ItemAt / CellOfItem — a click on a pixel — scan the
// displayed ranks instead of keeping two display-sized maps per Result.
//
// # Serving layer: visdbd, sharded session routing over HTTP
//
// The cross-process step of the scaling roadmap is internal/server —
// a stdlib-only HTTP/JSON subsystem hosted by the cmd/visdbd daemon
// and consumed through the typed visdb/client package (the wire
// vocabulary lives in internal/wire). The server hosts any number of
// catalogs partitioned across N shards by a deterministic name hash
// (server.ShardOf); a session is created against a catalog, lives on
// the catalog's shard (the session ID embeds the shard index, which
// is the entire routing table), and is driven through the full
// interaction protocol:
//
//	POST   /v1/sessions                {catalog, query, options}
//	POST   /v1/sessions/{id}/query     replace the whole query
//	POST   /v1/sessions/{id}/range     {attr, lo, hi} slider drag (null bound = open side)
//	POST   /v1/sessions/{id}/weight    {pred, weight} by predicate index
//	POST   /v1/sessions/{id}/pct       {pct} displayed-fraction slider
//	POST   /v1/sessions/{id}/undo      revert the last modification
//	GET    /v1/sessions/{id}/results   top-k rows (?top=k&tuples=1)
//	GET    /v1/sessions/{id}/timings   stage timings + cache attribution
//	DELETE /v1/sessions/{id}           close
//	GET    /v1/shards[/{shard}]        per-shard sessions/recalcs/cache stats
//	GET    /v1/catalogs                served catalogs and shard homes
//
// Each catalog owns one SharedCache, so remote sessions share leaf
// work exactly like in-process ones (warm clients see nonzero
// SharedHits in their wire timings); per-session mutexes serialize
// edits while distinct sessions run concurrently. Every mutating
// response carries a wire.Summary and results responses add only the
// top-k ranked rows, so wire cost is proportional to the display
// budget, never to n — and float64 values survive JSON bit-exactly
// (and the binary results frame, below, carries their bits as such),
// which TestRemoteReplayMatchesInProcess exploits to assert bitwise
// identity between a remote session and a fresh in-process engine at
// every step of a randomized script. The daemon drains in-flight
// recalculations on SIGTERM before exiting (TestDaemonSmoke). The
// serving overhead is bench/'s drag_http workload read against
// drag_inproc: the same script, with and without client, wire and
// server in the way.
//
// # The results frame
//
// GET /v1/sessions/{id}/results has two representations. JSON
// (wire.ResultsResponse) is the default: what curl, the examples above
// and every request with ?tuples=1 get, byte for byte what it always
// was. A request that lists wire.ResultsFrameType in Accept,
//
//	Accept: application/vnd.visdb.results-frame
//
// and does not set tuples is answered under that Content-Type with a
// columnar binary frame (internal/wire/frame.go, built on
// internal/binenc; all integers little-endian):
//
//	"VRS1"
//	u32 len, len bytes   wire.Summary as JSON (a few hundred bytes)
//	u32 k                rows that follow: min(top, displayed)
//	k × u32              item index per display rank
//	k × u64              IEEE-754 bits of the combined distance per rank
//
// That is 12 bytes per displayed row where JSON spends 40–70, with an
// explicit Content-Length, and "Vary: Accept" on both representations.
// The summary stays JSON inside the frame on purpose: it is small, and
// a Timings field added later reaches frame readers without a second
// schema (readers ignore fields they do not know). Relevance is not on
// the wire at all: it is relevance.RelevanceFactor(distance), a pure
// function, so the decoder recomputes it from the very bits the server
// would have fed it, and client.Results is bit for bit the value the
// JSON path yields — TestResultsFrameMatchesJSON fetches every picture
// of a randomized script three ways (JSON, frame, typed client) and
// compares them, and the e2e, chaos and fleet identity suites now run
// through the frame unchanged.
//
// Negotiation is per request and has no switch anywhere. The typed
// client sends the Accept header on Results (and therefore on
// FleetSession.Results), never on ResultsWithTuples, and decodes by
// the response's Content-Type; the router forwards Accept to the member
// and the member's Content-Type and Vary back. Every mismatch falls
// back to JSON silently: a new client against a member that predates
// the frame gets JSON because that member ignores Accept, an old client
// against a new member gets JSON because it never asks, and a picture
// the frame cannot carry (item indexes past 2^32) is answered as JSON
// whatever was asked. A fleet can therefore be upgraded member by
// member, in any order, with clients of either vintage connected. The
// decoder treats the frame as untrusted input: the declared row count
// must equal the bytes that follow, exactly, before anything is sized
// by it (FuzzResultsFrame).
//
// Why it exists: on the repository benchmark (bench/README.md; 2
// clients, 200k rows, 128×128 grid, a step = one edit + reading the
// whole picture back) a drag over HTTP spent half of its 28 ms
// producing and parsing ~590 kB of JSON. With the frame,
// client.results_self went 13.7 → 0.3 ms per step, server.results 3.8
// → 0.2 ms, the payload 592 → 145 kB, and drag_http step_p50 28.3 →
// 13.9 ms (drag_fleet 32.9 → 18.7 ms) — an HTTP step now costs what
// the in-process one does (drag_inproc: 14.2 ms).
//
// One rule rides along for every JSON response the fleet reads
// (internal/httpbody): decode, then read on to EOF. json.Decoder stops
// at the end of the value, which on a chunked body is before the
// terminator, and net/http discards a keep-alive connection whose body
// was closed unread — a session used to dial once per large response.
//
// # Failure semantics
//
// The serving layer is built so that every failure a distributed
// deployment actually sees — lost requests, lost responses, slow
// recalculations, damaged data files, crashed members, dead routers,
// a dead cache store — has a defined, tested outcome. The mechanisms
// compose:
//
//   - Request deadlines. visdbd -request-timeout arms a
//     context.Context deadline per request that flows through
//     Engine.Run into the chunk-fused evaluator, which polls a
//     cancellation checkpoint between chunks. An overrun answers 504
//     with code "deadline" (client disconnect: "canceled"), the
//     session rolls back to its pre-request state — query, ranges,
//     weights, history and displayed fraction all restored, the
//     aborted run's pooled buffers reclaimed — and leaf vectors the
//     aborted run completed stay cached, so a retry resumes instead
//     of starting over. Completed cache entries are never partial:
//     leaf computations are atomic with respect to cancellation.
//   - Idempotent retries. Mutating operations carry a per-session
//     monotonic sequence number (wire Seq; 0 = legacy non-idempotent).
//     A request is applied only when its Seq is past the last applied
//     number; retransmitting the last applied Seq replays the stored
//     response without recomputing (lost-response case); any older Seq
//     answers 409 "seq_conflict" so a late duplicate can never
//     re-apply. Responses are recorded for applied operations and
//     validation failures, never for rolled-back 5xx outcomes — a
//     retried timeout re-applies, which together with rollback gives
//     exactly-once application. visdb/client stamps Seq automatically
//     and, with Client.Retry set (RetryPolicy: attempt budget,
//     exponential backoff with jitter, Retry-After hints, injectable
//     clock for sleepless tests), retries transport errors and 5xx —
//     never 4xx — reusing the same Seq across attempts of one
//     operation.
//   - Segment checksums and quarantine. VSEGCAT2+ files carry a
//     CRC32C per segment blob plus a footer CRC; verification runs at
//     open (framing/footer) and on every segment decode. Damage
//     surfaces as a typed dataset.ErrCorruptSegment; visdbd
//     quarantines the affected catalog — at startup (the file fails
//     verification at load) or mid-serve (a decode trips a checksum)
//     — answering 503 "catalog_quarantined" with a Retry-After hint
//     for that catalog while every other catalog, including same-shard
//     neighbors, keeps serving. Legacy VSEGCAT1 files stay readable
//     (no per-blob checksums to verify).
//   - Session-ID nonces. Session IDs embed a per-process random nonce
//     ("s{shard}.{seq}-{nonce}"), so a restarted member answers a
//     stale ID — its own previous incarnation's or a dead peer's —
//     with a deterministic 404 "session_not_found" instead of silently
//     serving a different session that happened to reuse the counter.
//     That 404 is the trigger of the client-side recovery contract.
//   - Automatic session recovery. client.FleetSession wraps a session
//     with a deterministic operation log: every applied modification
//     (query, range, weight, pct — undo is folded into the log, so
//     replay needs no history) is recorded with the Seq it was
//     applied under. When an operation comes back "session_not_found"
//     (or the endpoint is unreachable and rotation finds another
//     router), the wrapper recreates the session on whatever member
//     now owns the catalog's shard, replays the log in order under
//     the ORIGINAL sequence numbers — so a replay racing a duplicate
//     retransmission still applies each operation exactly once — and
//     then re-issues the interrupted operation. Recoveries are
//     counted (FleetSession.Recoveries) and bounded per logical
//     operation (FleetOptions.MaxRecoveries) so a permanently sick
//     fleet surfaces the underlying error instead of looping.
//     Validation failures (4xx) are surfaced, not recovered: they are
//     deterministic, and their burned sequence numbers are legal gaps.
//   - KV circuit breaker. The internal/kv client wraps every
//     Get/Put in a breaker FSM: closed (normal traffic) → open after
//     BreakerThreshold consecutive transport errors (every call
//     short-circuits locally, zero network work, the cache degrades
//     to recompute) → half-open after BreakerCooldown (exactly one
//     probe call goes through; success closes the breaker, failure
//     re-opens it and restarts the cooldown). 200/404 on Get and
//     204/413 on Put count as healthy — only transport-level failure
//     trips it. The state, trip count and short-circuit count ride
//     core.SharedStats ("remote_breaker", "remote_trips",
//     "remote_short_circuits") into /v1/shards and the router's
//     /v1/fleet, so a flapping store is visible fleet-wide.
//
// Every non-2xx response carries a machine-readable wire code
// (wire.Code*; client.APIError exposes Code and RetryAfter):
//
//	404 session_not_found    unknown/dead session ID (recreate+replay)
//	409 seq_conflict         stale sequence number; resynchronize
//	409 nothing_to_undo      no earlier state to revert to
//	503 session_cap          shard at its session limit (Retry-After)
//	503 catalog_quarantined  segment checksum failure (Retry-After)
//	503 node_down            fleet member unreachable (Retry-After)
//	503 no_healthy_members   no member owns the shard (Retry-After)
//	504 deadline             recalculation overran, rolled back
//	504 canceled             client disconnected, rolled back
//
// The client's retry policy keys on these codes, not just the status
// class: node_down, catalog_quarantined, session_cap,
// no_healthy_members, deadline and canceled retry (honoring
// Retry-After); seq_conflict, nothing_to_undo and session_not_found
// never retry (the latter recovers via FleetSession instead); unknown
// codes fall back to retrying 5xx.
//
// internal/faultinject supplies the deterministic fault surface the
// suite drives this with: a scripted http.RoundTripper (drop before
// the server, drop the response after application), corrupting /
// truncating / slow io.ReaderAt wrappers, handler-level
// latency/error injection (server.Config.FaultHook), a
// connection-severing Breaker that makes an in-process member
// indistinguishable from a crashed one, and a seeded chaos scheduler
// (faultinject.GenerateChaosScript) that emits a deterministic
// fault timeline — member kills and restarts, router kills, kv
// partitions, injected latency — under invariants (never the last
// healthy member or router, a fully-healed tail) so a soak is
// reproducible from its seed alone.
// TestChaosReplayMatchesInProcess asserts that a randomized
// interaction script driven through drops, injected 500s and
// automatic retries stays bitwise identical to a fault-free
// in-process session with recalculation counts proving exactly-once
// application; TestFleetChaosSoakSelfHeals drives FleetSessions
// through a scripted multi-router soak — member crashes with
// restarts, kv partitions, latency — asserting both routers converge
// on the same PlacementHash after every event, results stay bitwise
// identical to fault-free engines, recalculation counts prove
// exactly-once application across recoveries, and no caller ever
// sees an error; TestDeadlineRollsBackAndRetryResumes proves the 504
// path rolls back bitwise and resumes; the corruption suite proves
// single-bit flips anywhere in a v2+ file are caught and contained.
//
// # Fleet topology: visdbrouter, placement, and the networked kv tier
//
// Above single-daemon serving sits the fleet tier: N visdbd member
// processes (each running the same -shards value and the same catalog
// set) behind one cmd/visdbrouter front end (internal/router), with an
// optional cmd/visdbkv store (internal/kv) externalizing the shared
// predicate cache across the members:
//
//	client ── visdbrouter ──┬── visdbd a ──┐
//	                        ├── visdbd b ──┼── visdbkv
//	                        └── visdbd c ──┘
//
// The router owns the placement map. Each of the fleet's shards is
// assigned by rendezvous hashing — FNV-64a of "shard|member", highest
// score among the HEALTHY members wins — so placement is a pure
// function of the healthy set: any number of routers probing the same
// members converge on the same map without coordinating (run two or
// more visdbrouter instances against the same -members for a
// redundant control plane — clients rotate on transport failure), and
// a membership change moves only the shards whose winner changed.
// Every router response carries an X-Visdb-Placement-Epoch header — a
// router-local counter that bumps whenever the placement changes —
// and GET /v1/health reports the epoch plus a PlacementHash over the
// full shard→owner map; epochs are only comparable within one router,
// the hash is comparable across routers and is what the convergence
// tests assert. Requests route exactly like visdbd's own shards:
// session creation hashes the catalog name (server.ShardOf), and every
// other session operation parses the shard index out of the session ID
// ("s{shard}.{seq}"), so the ID remains the entire routing table.
//
// Health and failure. The router probes each member's GET /v1/health
// (uptime, per-shard session counts, quarantined catalogs) on a
// period (jittered by -probe-jitter so N routers don't probe in
// lockstep); -fail-after consecutive failures marks the member down
// and recomputes placement immediately — its sessions died with it,
// so there is nothing to drain. A transport error during a live
// forward does the same thing BEFORE answering, so the 503 node_down
// response (with a Retry-After hint) already reflects the new
// placement and the client's retry lands on the new owner. Rejoin is
// symmetric hysteresis: a downed member needs -fail-after consecutive
// CLEAN probes to be re-admitted (any failure resets the streak), so
// a flapping member stays out until it is actually stable. Session
// IDs are not preserved across a failover: the new owner answers 404
// "session_not_found" for the dead node's sessions, and
// client.FleetSession automates the recovery contract — recreate the
// session (creation routes by catalog, landing on the new owner) and
// replay the operation log under the original sequence numbers, which
// the kv tier makes cheap because the dead node's computed leaf work
// is still resident in the store. A shard moving between two HEALTHY
// members instead drains: existing traffic (and new creations) stay
// on the old owner until its health report shows zero sessions on
// that shard, bounded by -drain-timeout — a rejoining member takes
// its shards back without dropping anyone's in-flight session. When
// NO member is healthy the router answers 503 "no_healthy_members"
// (with Retry-After) rather than picking a dead owner.
//
// The kv tier. visdbd -shared-kv attaches a read-through/write-through
// remote backend (core.SharedBackend) to every catalog's SharedCache:
// a shared-tier leaf miss consults the store before computing (only the
// singleflight leader issues the network read), and admitted fills are
// written back, so a leaf computed on one member warms every member.
// Leaf entries are all that travels: a leaf's distance vector(s) and
// slider scalars in core's versioned envelope (core/remote.go, over
// internal/binenc), under the leaf keys — "C|", "J|", "B|", "S|".
// Whatever is derived from a leaf is rebuilt by the member that needs
// it: each is a linear pass over a vector that member then holds, and
// each measured dearer to move than to make at the benchmark's 200k
// rows. A leaf's quantile index and chunk stats build in 4.2 ms against
// 7.0 ms to fetch them (1.6 MB), plus a 3.7 ms synchronous put on the
// member that built them first; an interior entry is a 1.6 MB fetch at
// ≈ 4 ms against a fused combine stage of 0.9 ms a step; and the
// attribute-column copy a condition leaf once carried was half of its
// payload for two panel fields the server never renders. Dropping the
// three took drag_fleet's kv traffic from 1.11 MB got + 1.29 MB put per
// step to 0.54 + 0.45 MB, and kv.get/put from 2.8 + 2.6 ms to 1.3 +
// 0.8 ms (CHANGES.md, PR 19). A value is adopted only if it decodes in
// full, under the current envelope version, to vectors exactly as long
// as the item space it was fetched for (decodeSharedEntry(data, rows);
// FuzzSharedEntry holds the decoder to that on arbitrary bytes).
// Anything else — a store error, a missing key, an older version's
// envelope, a truncated, padded or wrong-length value — is a remote
// miss answered by a local compute, counted in
// SharedStats.RemoteMisses, and never enters a local tier
// (TestRemoteLeafOfWrongLengthIsAMiss), so the kv tier can die, or
// answer with the wrong shape, without breaking serving; the content
// of a well-formed value under the right key is believed. Keys of
// retired kinds ("Q|" indexes, "I|" interior entries) left in a running
// store are never asked for and age out. The store itself speaks a
// minimal stdlib HTTP protocol: GET/PUT /v1/kv?key=K (200/404 on GET;
// 204 accepted, 413 over the value cap on PUT), GET /v1/kv/stats, and
// GET /healthz. Values are immutable: re-PUTting a key refreshes
// recency but keeps the first bytes, matching the cache's
// immutable-entry discipline. Keys are
// STRUCTURAL (table identity, row count, content epoch — not catalog
// names), which is what lets replica catalogs share entries; the
// operator contract is therefore that every catalog attached to one
// store holds identical data for identical table identities (replicas
// of different data must use distinct stores or distinct epochs).
//
// The router also aggregates the fleet: GET /v1/fleet reports
// membership and health, per-member owned shards, fleet-wide session
// and recalculation counts, the fleet-wide shared-hit rate (summed
// across members, remote hits included), and the kv store's counters.
// TestFleetReplayMatchesInProcess drives concurrent randomized
// sessions through a three-member fleet and asserts bitwise identity
// with fresh in-process engines at every step; TestExternalFleetReplay
// repeats that over real visdbd/visdbrouter/visdbkv processes in CI;
// TestFleetNodeKillRecovers kills a member mid-run and proves recovery
// via the retry/recreate/replay contract with recalc-counter equality
// against a fault-free mirror; TestFleetChaosSoakSelfHeals kills and
// restarts members under self-healing FleetSessions and requires
// recoveries > 0 with zero caller-visible errors. The fleet's step
// latency and its sharing counters are bench/'s drag_fleet workload.
//
// Render artifacts under out/ are generated by visdbbench and the
// examples; they are not tracked in git.
package repro
