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
// CHANGES.md the record of every change, with its measurements; this
// comment describes what the code does today.
//
// # The public API
//
// Policy: repro/visdb is the paper's interaction model and nothing
// else. It builds or opens a catalog, parses a query, runs it once
// (Engine) or opens a Session and drives its sliders, weights,
// selection, projection and drill-down, and reads the picture (Result:
// Windows, Image, Stats, PredicateInfos) and the ranked rows (TopK,
// Relevance, Pair, Tuple, Aggregates, ResultTable); the synthetic
// generators ride along. Engine, Result and Session are types of the
// facade, not aliases of internal/core or internal/session, so the
// engine's own methods and fields (a Result's Order, Eval, Engine,
// Binding) are not public API. The cache types (SharedCache,
// SharedStats, SharedOptions, RunCache and their constructors),
// NewSessionShared, Binding and ReadCSV left the facade: concurrent
// sessions over one catalog are what cmd/visdbd serves.
// TestFacadeSurface (visdb) pins the exported names. Inside, a
// core.Engine has three run entries: Run, RunSQL and RunCtx(ctx, q,
// binding, cache), where a nil binding binds and a nil cache runs
// uncached.
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
// default: internal/topk streams the vector through one O(k)-space
// selector of the display budget, and relevance normalization finds
// each vector's reduction range without sorting it: the per-code row
// counts of its code plane name the bucket the keep-th smallest value
// falls in, and only that bucket's rows — about n/252 — are selected
// (relevance.Codes.Range, relevance/orderstats.go). Options.FullSort
// ranks every item in O(n log n) instead: the exact full ranking that
// the benchmark's oracle and the differential tests compare the
// selection path against. The 2D arrangement ranks the same way; it
// counts its band of combined α-quantiles over the axes' cached sorted
// values (reduce.Items2D).
// The wire has no full-sort option: a remote session serves its
// displayed prefix, which a full sort does not change, and the server
// ignores a client's "full_sort" key.
//
// Policy: a process uses every core GOMAXPROCS gives it. A run builds
// its leaves one after another in query order, each leaf's distance
// pass chunked across all of those cores; concurrent sessions are the
// other source of parallelism. There is no worker option, and a
// client's "workers" session option is ignored (the server ignores
// unknown keys). Results are bit-identical whatever the core count.
//
// # Incremental feedback loop
//
// The paper's interactivity (section 4.3) is a tight modify-recompute
// loop: drag a slider, recompute, repaint. Two layers make the
// recompute incremental while staying bit-identical to a cold run
// (BenchmarkReweight and BenchmarkSliderDrag track the latencies):
//
//   - Leaf distance vectors are kept across reruns (see "Shared cache"
//     below), keyed by the condition's structural signature — table,
//     attribute, operator, literals, distance function, but NOT the
//     weighting factor. A weight-only rerun recomputes no distances; a
//     single-slider drag recomputes at most one leaf, and none when it
//     returns to a range the loop has been at (an undo, a bookmark).
//     A leaf's code plane answers its normalization range for any
//     weight: the minimum's class (a range leaf's exact answers) at
//     once, else one pass over the plane's bytes gathers the crossing
//     bucket's rows, or NormRange scans the vector when that bucket holds
//     an eighth of them or more (TestCodeRangeMatchesNormRange,
//     FuzzCodeRange).
//   - relevance.Evaluate is a chunk-fused evaluator: normalization
//     ranges come from code counts and selections, then one chunked
//     pass per tree level scales children (leaf chunks in L1-resident
//     scratch), combines them, and folds range statistics. Output
//     buffers are pooled across reruns, and per-predicate window
//     vectors materialize lazily (windows only read the displayed
//     items). The pooling contract: a session Result is valid until
//     the next recalculation.
//   - A fresh range leaf is one branch-free pass (distances selected by
//     bit masks) that codes its exact +0 entries as its plane's minimum
//     class: a range keeping no more items is [+0, +0] from the counts
//     alone; the slider's extremes are the column's (Column.MinMax).
//     (TestRangeKernelMatchesToRange, FuzzRangeKernel, BenchmarkRangeDistances,
//     TestCodeRangeMatchesNormRange, TestColumnExtremesMatchScan)
//
// # Rank before scale: monotonic-transform-aware top-k by filter and refine
//
// The root combine kernel's final scalar step — the geometric root of
// OR, the Lp root, the weight-normalized division — and the root's
// [0, Scale] re-normalization are MONOTONE, and only k ≪ n values are
// ever displayed. On the default selection path the engine therefore
// ranks the root's RAW combined values and applies the final transforms
// only to the top-k survivors (relevance.EvalOptions.DeferRoot →
// Result.RankRoot). Section 5.2 normalizes a combined vector before it
// is combined further, so the root is an interior node ranked before it
// is scaled, and one combine per AND/OR node (its children's raw
// vectors and scaling params, the resolved weights and kernel) produces
// its values: an interior pass adds the transform and the range scan,
// the deferred root keeps them raw, and a root whose transform could
// overflow is finished eagerly by the same combine
// (TestUndeferrableRootsFinishEagerly). Every child of a combine — leaf
// or interior node, computed or served — is scaled into scratch and
// materialized only by Result.Vec, so reading a window before the
// ranking leaves the root's ranking alone
// (TestWindowBeforeRankingKeepsPruning).
//
//   - Code planes. Every vector the shared tier ranks by is coded where
//     it is born — a leaf by its compute (the pushdown's skipped segments
//     without a read), an interior vector by the pass that fills it, a
//     kv arrival as the tier admits it: a byte per row (relevance.Codes)
//     naming the row's class — -Inf, the vector's minimum (a range
//     leaf's exact answers), one of 252 equal-width buckets, +Inf, NaN —
//     and per class a raw interval holding its rows, exact for every
//     class but a bucket. The plane counts in the entry's bytes and
//     never crosses kv.
//   - Filter. Each child's intervals, mapped through its params and
//     weight onto the terms its kernel folds, bound every row's raw root
//     value in two passes over bytes (the VA-file's filter step, Weber,
//     Schek & Blott, VLDB 1998). Pass one counts the upper bounds and
//     finds the lexicographic K-th (upper bound, index) cut, K the
//     larger of k and the root's keep count; pass two keeps the rows
//     whose (lower bound, index) reaches it — a superset of the exact
//     top K, as K rows lie at or below the cut exactly
//     (TestRowFilterKeepsTopK, FuzzRowFilter). An OR row whose codes
//     leave it NaN or zero is kept too: the NaN count needs it decided.
//     A plane keeps each evaluator chunk's least code, so on a clustered
//     column both passes leave out the chunks whose rows all lie past
//     the cut.
//   - Refine. A kept row whose bounds meet is exact already (a class
//     exact in every child, or an OR child's proven zero); only the
//     others run the combine kernel, into a lexicographic (value, index)
//     selector (topk.StreamSelector), and the root's range comes from
//     their order statistics.
//   - The passes do not guess. Their n-wide loops run over columns in
//     generation order, where which class a row falls into or which
//     side of a clamp or of the cut it lies on is a coin flip, so none
//     is a branch: the code pass selects a row's class with masks,
//     relevance.applyRange its clamps, the filter keeps its rows by a
//     compacting store, and StreamSelector.OfferSlice is one too. Each
//     is held to its element-at-a-time reference bit for bit
//     (TestCodePlane, TestApplyRangeMatchesApply, FuzzApplyRange,
//     TestOfferSliceMatchesElementwise) and reads the same on sorted and
//     on shuffled input (BenchmarkCodePlane, BenchmarkApplyRange,
//     BenchmarkOfferSlice).
//   - Tie resolution keeps the result bit-identical to
//     Options.FullSort: scaled-space ties order by item index, so the
//     cut computes the raw-domain preimage of the k-th scaled value by
//     bisection (topk.SupWhere) and walks indices ascending — a row the
//     filter did not refine is placed inside or outside the tie class
//     by its bounds or refined after all, and a value within an ulp-wide
//     margin of a math.Pow transform's preimage edge is placed by its
//     own scaled value.
//   - Result.Combined() materializes the full scaled vector lazily (the
//     root's Vec); displays, wire responses and windows read the ranked
//     prefix via Result.DistanceOfRank and never force it, and the 2D
//     band reads its members' values alone (Result.RootValues).
//     Result.Order holds the ranked prefix (selectBudget entries), the
//     displayed band under Arrange2D; Result.TopK(k) extends the ranking
//     for any deeper k.
//
// StageTimings.Scale times the survivor scaling, RootCombine the part
// of Select that produces the raw values (every row bounded, the open
// ones combined), Refined the rows the kernel ran on, and Pruned/Chunks
// the evaluator chunks with none of them (all exposed over the wire).
// The identity property — bitwise-equal rows, distances, relevances and
// order against FullSort under randomized interaction scripts — is
// asserted by TestRankBeforeScaleMatchesFullSortScript,
// TestDeferredRankMatchesEagerSelection and the selection suite.
//
// # Columnar segments: catalogs larger than RAM
//
// internal/dataset has one column type, dataset.Column: a kind, a row
// count, per-segment stats, extremes, and segments of SegmentSize = 4096
// rows — the chunk size the fused evaluator and the code pass iterate
// in — each null flags plus the kind's one payload slice. A
// resident column holds its segments (Table.AppendRow fills them); a
// file-backed one reads them from a write-once segment-catalog file
// (dataset.WriteCatalogFile / OpenCatalogFile; "VSEGCAT3", JSON footer,
// FNV-1a content epoch) with ReadAt into pooled buffers, decoded into a
// bounded decoded-segment cache, so resident memory is O(cache budget),
// not O(catalog). Value, IsNull and ReadFloats read a segment the same
// way whatever its backing. The catalog epoch flows into every
// structural cache key, so a regenerated file can never cross-serve
// another file's cached vectors. Serving a catalog from disk is bitwise
// identical to serving it from memory (TestDiskReplayBitIdentical,
// TestDiskCatalogReplayMatchesInMemory). visdbd accepts "name:path"
// catalog specs, visdbgen -format seg writes the files.
//
// The file is blobs of raw payloads, a JSON footer and a 20-byte tail
// [footer CRC32C | footer length | "VSEGEND3"], and the reader reads
// exactly what the writer writes:
//
//   - Integrity: every blob's CRC32C is in the footer and checked on
//     every read, the footer's in the tail; a footer that fails its
//     checks — a kind outside KindFloat…KindNominal among them — is a
//     typed ErrCorruptSegment at open (visdbd quarantines the catalog),
//     a blob that fails its CRC — or a file cut short under a running
//     daemon — is the catalog's sticky Corrupt() error
//     (TestEveryByteFlipDetected, TestCatalogTruncatedAfterOpen,
//     TestFooterKindOutsideTheEnumRefusedAtOpen, FuzzOpenCatalogFile).
//   - Stats are a property of every column: min/max and a count of
//     unusable rows per numeric segment (Column.SegmentStats), and the
//     column's extremes (Column.MinMax). A resident column folds them on
//     append in row order; a file-backed one has them from the footer,
//     as hex floats, where stats that fail to parse are a typed
//     ErrCorruptSegment at open (TestSegmentStatsMatchScan,
//     TestColumnExtremesMatchScan, both over both backings).
//   - Predicate pushdown: a range scan skips reading — for a file-backed
//     column, decoding — a segment whose stats prove every row inside
//     the query interval — distance exactly 0 — so results stay
//     bit-identical by construction, and the skipped chunks are coded
//     from the proof without a read. It does not depend on the backing.
//     StageTimings.SegsSkipped/Segs attribute it
//     (TestPushdownLockstepReplay).
//   - The writer writes segments: each column's, as they are — resident,
//     or read from the file an opened catalog serves — with the stats
//     the column holds, so reopening a file and writing it again
//     reproduces it byte for byte (TestRewriteReproducesFile). A time is
//     stored as int64 Unix nanoseconds, so the writer refuses an instant
//     outside the years 1678–2262 with an error naming table, column and
//     row (TestWriteRefusesTimesOutsideNanos).
//   - One layout: a "VSEGCAT1" or "VSEGCAT2" head, or a blob an earlier
//     writer compressed (footer enc != 0), is refused at open with an
//     error that names the layout, says to rewrite the file with
//     visdbgen -format seg, and does not wrap ErrCorruptSegment — visdbd
//     fails its startup on such a path as on a wrong one
//     (TestFormatVersionMatrixRoundTrip, TestDaemonRefusesEarlierLayouts).
//   - Writes replace: the writer fills a temporary file beside the path
//     and renames it into place at the end, so a catalog open at the
//     path keeps reading the file it opened, and a failed write leaves
//     the path as it was (TestCatalogRewriteLeavesOpenReaderAlone).
//
// # Interior reuse: an interior vector is filled like a leaf
//
// Cached runs keep the raw combined vector of every interior node whose
// pass they reach (the deferred root has none), under the key core
// builds with every other cache key (runKeys.interior, "I|": the kernel
// options, the operator, each child's key and effective weight — NOT
// the node's own weight) and hands the evaluator on the node
// (relevance.Node.Key; a node without one is never resolved through the
// cache). After evaluating the node's children, the evaluator asks
// relevance.EvalOptions.Interior for the vector, which the engine
// resolves as it resolves a leaf: the run's pins, then the tier, then
// the node's pass, which runs once under the tier's singleflight and
// writes into a vector the tier keeps, coded over the pass's extremes.
// Hit or miss, the node is then read as a leaf is: the vector is
// read-only, its normalization range — the keep-th smallest finite
// value, a new keep with every move of the node's weight — comes from
// its code plane's counts, and its scaled form is chunk-local in the
// parent's pass. Each interior node resolves on its own, so a hit whose
// descendant was evicted recomputes that descendant alone, and every
// window below stays materializable. The vector lives in the
// SharedCache among the leaves, under the same recency rule and byte
// budget, counts as InteriorHits/InteriorMisses, and never travels to
// the kv tier. Results are bit-identical; StageTimings.SketchHits/
// SketchRescans attribute it (TestInteriorSketchWarmRerunBitIdentical,
// TestEvictedInnerPartRecomputesAlone, TestInteriorVectorsStayLocal).
//
// # Shared cache: serving many sessions on one catalog
//
// The predicate cache is one store, core.SharedCache, and a per-session
// pin set over it, core.RunCache. The store's contract is two lines:
//
//	recency alone decides residency;
//	a key names exactly one vector.
//
// Concurrent sessions on the same catalog attach to the catalog's
// SharedCache (session.NewShared, which the serving layer calls per
// catalog); a session
// that attaches none stands on a small one of its own (64 leaves under
// the default byte budget). A leaf is resolved in this order:
//
//	the session's pins  →  the SharedCache  →  (the kv tier)  →  compute
//
// What follows from the first line. Every computed leaf is stored,
// whatever it cost, and nothing is ever invalidated: a range edit, an
// undo, a query replacement leave the entries they walk away from where
// they are; the entry cap and the byte budget push entries out of the
// cold end, and nothing else drops one (SharedStats.Evictions is
// everything that ever left; TestDragStormStaysInsideTheBudget). Going
// back — the third move of the paper's modify, look, go back loop — is
// therefore a hit, for the session that left the range and for any
// other, on a 500-row catalog as on a large one
// (TestAdmissionOverWire). Fills are singleflight: N sessions dragging
// the same slider compute a leaf once.
//
// What follows from the second. A key is the full structural signature
// of the leaf computation — item space (tables, row counts, content
// epoch), attribute, operator, literals, distance function, and for the
// leaf kinds that depend on engine options, those options: a subquery
// key carries budget and combine mode. No leaf key depends on the
// arrangement: the 2D arrangement computes an axis condition's signed
// distances where it places items, from the leaf's distances, and keeps
// them under a key of their own ("A|" and the leaf's key), so a spiral
// and a 2D session on one catalog share each condition leaf
// (TestSpiralAnd2DShareConditionLeaves) and a 2D weight drag computes
// no distances (BenchmarkDrag2D).
// No lookup is ever conditional on what an entry happens to contain, and
// no fill replaces another. Entries are immutable and
// eviction only unlinks them, so sessions holding a vector through
// their pins or a live Result are unaffected.
//
// A session pins the leaves (and interior vectors) its live Result and
// its run in flight read, and nothing else: the pins turn over with the
// evaluation buffers, a successful run's replacing the previous
// picture's, a failed run's dropped. Pins are pointers, not copies.
// They keep a rerun at zero misses when the store has meanwhile evicted
// the entry (TestPinnedSessionReadsWhileNeighbourEvicts), and a pinned
// hit touches the store's entry so that a leaf a session sits on does
// not age out under other sessions' fills. Everything downstream of the
// leaves — evaluation buffers, rankings, Results — stays
// session-private (TestConcurrentSharedSessionsMatchFreshEngine).
//
// A cached leaf is only its vector: its raw distances and the code
// plane its compute built. Only a 2D axis entry ("A|") carries its
// sorted values, the sample its bands are cut from, sorted where the
// vector is born — its compute, or a kv arrival (SharedCache.fetch's
// derive) — so that an entry is whole when stored and never written
// again. What a condition's slider
// shows is read where it lives: the attribute from the binding, the
// query range from the condition (numericRange), the extremes from the
// column (Column.MinMax) — all O(1) — and the first/last displayed
// values from the cells of the displayed items
// (TestPanelValuesComeFromTheCatalog). One function (Engine.leafNode)
// turns an entry into the relevance leaf of a condition, join,
// boolean fallback or subquery.
//
// Every tier — a SharedCache, the kv server's resident set, the decoded-segment cache of a catalog file —
// stands on internal/lru: a map ordered by recency under an entry cap
// and a byte budget, with one eviction rule (evict from the cold end
// while over either bound, never the most recently used entry). Each
// tier keeps its own mutex and counters and only sets the bounds:
// core.SharedOptions' MaxEntries and MaxBytes (interior vectors compete
// with leaves for both, by recency alone); the kv server's -max-entries
// and -max-bytes-mb; OpenOptions.CacheBytes for segments.
//
// # Serving layer: visdbd, sharded session routing over HTTP
//
// internal/server is a stdlib-only HTTP/JSON subsystem hosted by the
// cmd/visdbd daemon and consumed through the typed visdb/client package
// (the wire vocabulary lives in internal/wire). The server hosts any
// number of catalogs partitioned across N shards by a deterministic
// name hash (server.ShardOf); a session lives on its catalog's shard
// (the session ID embeds the shard index, which is the entire routing
// table):
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
// A range op names its condition by attribute, "x" or "T.x": the first
// condition on it in query order (query.Binding.CondOn, the rule a 2D
// arrangement's axis names one by too, passing over a boolean fallback,
// which has no signed distances).
//
// Each catalog owns one SharedCache, so remote sessions share leaf work
// exactly like in-process ones. Every mutating response carries a
// wire.Summary and results responses add only the top-k ranked rows, so
// wire cost is proportional to the display budget, never to n, and
// float64 values survive bit-exactly (TestRemoteReplayMatchesInProcess).
// The daemon drains in-flight recalculations on SIGTERM before exiting.
//
// GET .../results has two representations. JSON (wire.ResultsResponse)
// is the default and what ?tuples=1 always gets. A request that lists
// wire.ResultsFrameType ("application/vnd.visdb.results-frame") in
// Accept gets a columnar binary frame (internal/wire/frame.go):
//
//	"VRS1"
//	u32 len, len bytes   wire.Summary as JSON
//	u32 k                rows that follow: min(top, displayed)
//	k × u32              item index per display rank
//	k × u64              IEEE-754 bits of the combined distance per rank
//
// — 12 bytes per displayed row where JSON spends 40–70. Relevance is
// recomputed by the decoder from the distance bits. Negotiation is per
// request: the typed client asks on Results, never on
// ResultsWithTuples, and decodes by the response's Content-Type; the
// router forwards Accept and Content-Type; every mismatch falls back to
// JSON, so a fleet upgrades member by member. The decoder treats the
// frame as untrusted input (FuzzResultsFrame,
// TestResultsFrameMatchesJSON).
//
// # Failure semantics
//
// The serving edge's contract is four lines, each with the tests that
// hold it:
//
//   - A mutation is idempotent by Seq and rolled back on deadline. Every
//     mutating request carries a positive per-session sequence number
//     (none is a 400); it applies only past the last applied one, the
//     last applied one replays its stored response, an older one is a
//     "seq_conflict". An overrun of visdbd -request-timeout (or a client
//     disconnect) restores the pre-request state and records nothing, so
//     the same Seq re-applies. (TestSeqReplayAndConflict,
//     TestDeadlineRollsBackAndRetryResumes, FuzzSessionRequestBodies)
//   - A read is a picture of the last committed step, never of a
//     half-applied edit — across a recovery, of the replayed log.
//     (TestChaosReplayMatchesInProcess, TestFleetChaosSoakSelfHeals)
//   - The code decides who retries. A coded failure travels under the
//     status and Retry-After hint of its row below (wire.CodeTable) and
//     is retried by its class alone: "resend" the same request, same
//     Seq; "recreate" the session and replay the log, which
//     client.FleetSession keeps as the wire requests it sent (a plain
//     Session surfaces the error); or "never". Uncoded failures — a
//     request that does not validate (400), a malformed ID or unknown
//     catalog (404), a tuple that cannot be rendered (500), anything a
//     foreign hop answers — are classified in one place, wire.ClassOf,
//     by status: 5xx resend, 4xx never. (TestCodeTableIsTheContract,
//     which also holds this table to that one; TestRetryableKeysOnCode)
//   - One budget per logical operation. A call — for a FleetSession with
//     whatever rotation, recreation and replay it needs — makes at most
//     Client.Retry.MaxAttempts attempts in one loop (RetryPolicy.run),
//     waiting between them the longer of its backoff and the server's
//     hint. (TestOneBudgetPerOperation, TestFleetSessionRecoveryBudget)
//
// Closing is idempotent: client.Session.Close answers nil for
// session_not_found, however the session went (TestSessionCloseIsIdempotent).
//
// The rows:
//
//	code                 status  Retry-After  who retries
//	session_not_found    404     -            recreate
//	seq_conflict         409     -            never
//	nothing_to_undo      409     -            never
//	session_cap          503     1s           resend
//	catalog_quarantined  503     60s          resend
//	node_down            503     -            resend
//	no_healthy_members   503     2s           resend
//	deadline             504     -            resend
//	canceled             504     -            resend
//
// node_down carries no hint: the router marks the member down and
// re-places its shards before it writes the response, so the resend
// reaches the new owner — which answers a session request with
// session_not_found, because session IDs embed a per-process nonce
// ("s{shard}.{seq}-{nonce}") and a stale one names nobody. Damage to a
// segment file (CRC32C per blob and footer) quarantines that catalog
// alone (TestCorruptCatalogQuarantinedOthersServe); a dead kv store
// opens the internal/kv client's breaker and the cache degrades to
// recompute (TestKVBreakerVisibleInFleetStats). internal/faultinject is
// the deterministic fault surface the suites drive this with.
//
// # Fleet topology: visdbrouter, placement, and the networked kv tier
//
// N visdbd members (same -shards, same catalog set) sit behind one or
// more cmd/visdbrouter front ends (internal/router), with an optional
// cmd/visdbkv store (internal/kv) sharing leaf vectors across members:
//
//	client ── visdbrouter ──┬── visdbd a ──┐
//	                        ├── visdbd b ──┼── visdbkv
//	                        └── visdbd c ──┘
//
// Placement is rendezvous hashing of "shard|member" over the HEALTHY
// members — a pure function of the healthy set, so any number of
// routers converge without coordinating. Every router response carries
// X-Visdb-Placement-Epoch (router-local), and GET /v1/health a
// PlacementHash comparable across routers. Requests route like visdbd's
// own shards: creation hashes the catalog name, everything else parses
// the shard out of the session ID.
//
// The router probes each member's GET /v1/health on a jittered period;
// -fail-after consecutive failures (or a transport error during a live
// forward) mark it down and recompute placement before answering 503
// "node_down"; re-admission needs the same number of clean probes. A
// shard moving between two healthy members drains first (bounded by
// -drain-timeout). With no healthy member the router answers 503
// "no_healthy_members". GET /v1/fleet aggregates membership, ownership,
// session and recalculation counts, the shared-hit rate and the kv
// store's counters.
//
// The kv tier. visdbd -shared-kv attaches a core.SharedBackend to every
// catalog's SharedCache: a leaf miss consults the store before
// computing (only the singleflight leader asks) and local fills are
// written back. Leaf vectors and a 2D axis's signed distances are all
// that travels, in core's versioned envelope (core/remote.go; version 5:
// the version byte, then the vector), under the leaf keys "C|", "J|",
// "B|", "S|" and the axis keys "A|"; code planes, axes' sorted samples
// and interior vectors are rebuilt where they are used, and a slider's
// numbers are read from the condition and its column. A value is
// adopted only if it decodes in full, under the current envelope
// version, to a vector exactly as long as the item space
// (decodeSharedEntry; FuzzSharedEntry). Anything else — a value an older member wrote under
// an earlier version included, so version skew across a rolling upgrade
// is a remote miss, never an error — is answered by a local compute
// (TestRemoteLeafOfWrongLengthIsAMiss), so the store can die or answer
// with the wrong shape without breaking serving. The store speaks
// GET/PUT /v1/kv?key=K, GET /v1/kv/stats and GET /healthz; values are
// immutable. Keys are structural (table identity, row count, content
// epoch — not catalog names), so every catalog attached to one store
// must hold identical data for identical table identities.
//
// TestFleetReplayMatchesInProcess, TestExternalFleetReplay (real
// processes, in CI), TestFleetNodeKillRecovers and
// TestFleetChaosSoakSelfHeals hold the fleet's identity and recovery
// properties; its step latency is bench/'s drag_fleet workload.
package repro
