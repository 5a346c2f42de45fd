package apiv1

// Metrics is the GET /varz body: a JSON snapshot of the daemon's
// operational counters. All counters are cumulative since process
// start unless noted.
type Metrics struct {
	// UptimeSeconds since the server started.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Draining is true once graceful shutdown has begun.
	Draining bool `json:"draining"`
	// InFlight counts requests currently holding an engine slot;
	// QueueDepth counts admitted requests waiting for one.
	InFlight   int64 `json:"inFlight"`
	QueueDepth int64 `json:"queueDepth"`
	// Requests breaks down every POST /v1/segment seen.
	Requests RequestCounters `json:"requests"`
	// Coalesce always reads zeros: tablesegd runs every request
	// through its own engine run. It stays so that v1 clients keep
	// decoding.
	Coalesce CoalesceCounters `json:"coalesce"`
	// Engine reports the shared engine's artifact caches.
	Engine EngineCounters `json:"engine"`
	// Stages are per-pipeline-stage latency histograms, in pipeline
	// order, folded from each completed task's per-stage stats (the
	// stages a response's stats report when the request asks).
	Stages []StageHistogram `json:"stages,omitempty"`
}

// RequestCounters classifies completed requests.
type RequestCounters struct {
	Total int64 `json:"total"`
	OK    int64 `json:"ok"`
	// RateLimited, QueueFull and DrainRejected count admissions the
	// daemon refused (429, 429, 503 respectively).
	RateLimited   int64 `json:"rateLimited"`
	QueueFull     int64 `json:"queueFull"`
	DrainRejected int64 `json:"drainRejected"`
	// ByCode counts error responses per wire code.
	ByCode map[string]int64 `json:"byCode,omitempty"`
}

// CoalesceCounters is the shape of Metrics.Coalesce, kept for v1
// clients; every field reads 0, since tablesegd does not coalesce
// requests.
type CoalesceCounters struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	InFlightKeys int64 `json:"inFlightKeys"`
}

// EngineCounters mirrors the engine's cache statistics. Fields are
// append-only: existing names and meanings never change within v1.
type EngineCounters struct {
	TasksCompleted int64 `json:"tasksCompleted"`
	TokenHits      int64 `json:"tokenHits"`
	TokenMisses    int64 `json:"tokenMisses"`
	TemplateHits   int64 `json:"templateHits"`
	TemplateMisses int64 `json:"templateMisses"`
	CachedSites    int64 `json:"cachedSites"`
	// ResultHits and ResultMisses count result-journal lookups: zero
	// unless the serving engine was built with Resume, which tablesegd
	// never sets (every request runs the pipeline).
	ResultHits   int64 `json:"resultHits"`
	ResultMisses int64 `json:"resultMisses"`
	// Tiers reports the artifact store's per-tier counters, fast tier
	// first. Every engine runs through a store, so the built-in one
	// always reports at least its memory tier.
	Tiers []CacheTier `json:"tiers,omitempty"`
}

// CacheTier is one artifact-store tier's counter snapshot.
type CacheTier struct {
	// Tier names the tier ("memory", "disk").
	Tier string `json:"tier"`
	// Hits and Misses count lookups; Puts counts stores.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
	// Evictions counts entries dropped to stay within the tier's byte
	// budget; Errors counts absorbed backend failures (corrupt or
	// unwritable artifacts), each surfaced to callers as a miss.
	Evictions int64 `json:"evictions"`
	Errors    int64 `json:"errors"`
	// Entries and Bytes are the tier's current residency.
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// StageHistogram is one stage's latency distribution. Bounds are fixed
// per server; Counts[i] tallies stage calls with latency <=
// BoundsMillis[i], non-cumulatively between bounds, and Overflow
// tallies the rest. Count and TotalMillis sum the calls and wall time
// of every task's stage; a stage called more than once in a task
// counts each call at the mean of that task's calls.
type StageHistogram struct {
	Stage        string    `json:"stage"`
	Count        int64     `json:"count"`
	TotalMillis  float64   `json:"totalMillis"`
	BoundsMillis []float64 `json:"boundsMillis"`
	Counts       []int64   `json:"counts"`
	Overflow     int64     `json:"overflow"`
}
