package server

import (
	"expvar"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/engine"
	"localwm/internal/family"
	"localwm/internal/jobs"
	"localwm/internal/obs"
	"localwm/internal/obs/profiler"
	"localwm/internal/obs/recorder"
	"localwm/internal/robust"
	"localwm/internal/store"
	"localwm/lwmapi"
)

// latWindow keeps the most recent request latencies of one endpoint in a
// fixed ring, enough to answer p50/p99 for a live dashboard without
// unbounded memory. Quantiles are computed over whatever the ring holds.
//
// The window backs only the expvar snapshot's p50_ms/p99_ms fields
// (kept for dashboard compatibility); the scrape-facing source of truth
// is the fixed-bucket histogram on /metrics, which aggregates across
// replicas where a ring of raw samples cannot.
type latWindow struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	n    int
}

const latWindowSize = 512

func newLatWindow() *latWindow { return &latWindow{buf: make([]time.Duration, latWindowSize)} }

func (l *latWindow) add(d time.Duration) {
	l.mu.Lock()
	l.buf[l.next] = d
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// quantile returns the q-quantile (0 < q <= 1) of the window, or 0 when
// empty. Nearest-rank (rank = ceil(q·n)) on a sorted copy, so the
// extreme quantiles behave at small window sizes: p99 of any window
// shorter than 100 samples is the maximum, never one below it — the
// earlier round-half-up rank was biased one sample low whenever q·n
// landed just above an integer (p99 of 52 samples returned the 51st).
func (l *latWindow) quantile(q float64) time.Duration {
	l.mu.Lock()
	sample := append([]time.Duration(nil), l.buf[:l.n]...)
	l.mu.Unlock()
	if len(sample) == 0 {
		return 0
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	idx := int(math.Ceil(q*float64(len(sample)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sample) {
		idx = len(sample) - 1
	}
	return sample[idx]
}

// endpointMetrics is the per-endpoint slice of the daemon's counters.
type endpointMetrics struct {
	accepted  atomic.Uint64 // admitted to the queue
	completed atomic.Uint64 // finished with a 2xx
	failed    atomic.Uint64 // finished with a 4xx/5xx other than below
	rejected  atomic.Uint64 // 429: queue full
	timedOut  atomic.Uint64 // 504: deadline expired while queued/running
	panicked  atomic.Uint64 // 500: job panic confined by the pool
	drained   atomic.Uint64 // 503: rejected because the daemon is draining
	lat       *latWindow

	// Prometheus-facing series, registered on the server's registry.
	hist      *obs.Histogram // request duration (admitted requests)
	queueWait *obs.Histogram // submit-to-start wait (requests that ran)
}

// familyMetrics is one (family, endpoint) cell of the per-family
// request counters: how many requests dispatched through that family's
// protocol on that endpoint, and how many of them errored. Cells exist
// statically for every registered family × compute endpoint, so the
// scrape always shows the full label space (at zero) and a dashboard can
// alert on a family that never sees traffic.
type familyMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
}

// metrics aggregates everything the daemon exposes over expvar.
type metrics struct {
	start     time.Time
	endpoints map[string]*endpointMetrics
	families  map[string]map[string]*familyMetrics // family → endpoint
}

// familyEndpoints are the endpoints that dispatch through the family
// registry and therefore carry per-family series.
var familyEndpoints = []string{epEmbed, epDetect, epVerify, epDesigns, epRobust}

func newMetrics(endpoints ...string) *metrics {
	m := &metrics{
		start:     time.Now(),
		endpoints: make(map[string]*endpointMetrics),
		families:  make(map[string]map[string]*familyMetrics),
	}
	for _, ep := range endpoints {
		m.endpoints[ep] = &endpointMetrics{lat: newLatWindow()}
	}
	for _, fam := range family.Names() {
		per := make(map[string]*familyMetrics, len(familyEndpoints))
		for _, ep := range familyEndpoints {
			per[ep] = &familyMetrics{}
		}
		m.families[fam] = per
	}
	return m
}

// observeFamily counts one family-dispatched request on an endpoint.
// Unknown (family, endpoint) pairs are dropped — the label space is the
// static registry cross compute endpoints, never request-supplied text.
func (m *metrics) observeFamily(fam, endpoint string, err error) {
	fm := m.families[fam][endpoint]
	if fm == nil {
		return
	}
	fm.requests.Add(1)
	if err != nil {
		fm.errors.Add(1)
	}
}

// buildRegistry assembles the server's Prometheus registry: per-endpoint
// request counters and latency/queue-wait histograms, queue gauges, the
// process-wide engine and oracle counters, and (when fault injection is
// on) the chaos counters. Called once from New, after the queues exist.
func (s *Server) buildRegistry() *obs.Registry {
	r := obs.NewRegistry()

	names := make([]string, 0, len(s.metrics.endpoints))
	for name := range s.metrics.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		em := s.metrics.endpoints[name]
		q := s.queues[name]
		lbl := map[string]string{"endpoint": name}
		em.hist = r.Histogram("lwmd_request_duration_seconds",
			"Admitted request duration (queue wait + execution), by endpoint.", nil, lbl)
		em.queueWait = r.Histogram("lwmd_queue_wait_seconds",
			"Admission-queue wait before a worker picked the request up, by endpoint.", nil, lbl)
		for _, res := range []struct {
			name string
			c    *atomic.Uint64
		}{
			{"ok", &em.completed},
			{"error", &em.failed},
			{"rejected", &em.rejected},
			{"timeout", &em.timedOut},
			{"panic", &em.panicked},
			{"drained", &em.drained},
		} {
			c := res.c
			r.CounterFunc("lwmd_requests_total",
				"Finished requests by endpoint and result (ok, error, rejected, timeout, panic, drained).",
				map[string]string{"endpoint": name, "result": res.name},
				func() float64 { return float64(c.Load()) })
		}
		r.GaugeFunc("lwmd_queue_depth",
			"Queued plus currently executing requests, by endpoint.", lbl,
			func() float64 { return float64(q.depth()) })
		r.GaugeFunc("lwmd_queue_capacity",
			"Pending-request capacity of the admission queue, by endpoint.", lbl,
			func() float64 { return float64(cap(q.tasks)) })
	}

	// Per-family request counters, one series per registered family ×
	// family-dispatched endpoint, present (at zero) from startup.
	for _, fam := range family.Names() {
		for _, ep := range familyEndpoints {
			fm := s.metrics.families[fam][ep]
			lbl := map[string]string{"family": fam, "endpoint": ep}
			r.CounterFunc("lwmd_family_requests_total",
				"Requests dispatched through a watermark family's protocol, by family and endpoint.",
				lbl, func() float64 { return float64(fm.requests.Load()) })
			r.CounterFunc("lwmd_family_errors_total",
				"Family-dispatched requests that returned an error, by family and endpoint.",
				lbl, func() float64 { return float64(fm.errors.Load()) })
		}
	}

	r.GaugeFunc("lwmd_draining",
		"1 while the daemon rejects new work during graceful shutdown, else 0.", nil,
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("lwmd_uptime_seconds", "Seconds since the server started.", nil,
		func() float64 { return time.Since(s.metrics.start).Seconds() })

	// Design-registry series. Counters first, then the gauges that track
	// the resident set.
	for _, sc := range []struct {
		name, help string
		load       func(store.Counters) uint64
	}{
		{"lwmd_store_hits_total", "Design-registry lookups that resolved.",
			func(c store.Counters) uint64 { return c.Hits }},
		{"lwmd_store_misses_total", "Design-registry lookups that missed (never put, or evicted).",
			func(c store.Counters) uint64 { return c.Misses }},
		{"lwmd_store_puts_total", "Designs inserted into the registry (refreshes excluded).",
			func(c store.Counters) uint64 { return c.Puts }},
		{"lwmd_store_evictions_total", "Designs dropped from the registry by LRU capacity pressure.",
			func(c store.Counters) uint64 { return c.Evictions }},
		{"lwmd_store_compactions_total", "Write-ahead-log snapshot+truncate cycles.",
			func(c store.Counters) uint64 { return c.Compactions }},
	} {
		load := sc.load
		r.CounterFunc(sc.name, sc.help, nil,
			func() float64 { return float64(load(s.store.Counters())) })
	}
	for _, sg := range []struct {
		name, help string
		load       func(store.Counters) int64
	}{
		{"lwmd_store_entries", "Designs currently resident in the registry.",
			func(c store.Counters) int64 { return c.Entries }},
		{"lwmd_store_bytes", "Canonical text bytes of the resident designs.",
			func(c store.Counters) int64 { return c.Bytes }},
		{"lwmd_store_wal_bytes", "Current write-ahead-log size (0 for an in-memory registry).",
			func(c store.Counters) int64 { return c.WALBytes }},
	} {
		load := sg.load
		r.GaugeFunc(sg.name, sg.help, nil,
			func() float64 { return float64(load(s.store.Counters())) })
	}

	// Async-job series, read through the manager's counter snapshot.
	for _, jc := range []struct {
		name, help string
		load       func(jobs.Counters) uint64
	}{
		{"lwmd_jobs_submitted_total", "Async jobs created (idempotency-key dedup hits excluded).",
			func(c jobs.Counters) uint64 { return c.Submitted }},
		{"lwmd_jobs_deduped_total", "Async job submissions answered by an existing job via idempotency key.",
			func(c jobs.Counters) uint64 { return c.Deduped }},
		{"lwmd_jobs_completed_total", "Async jobs that reached the done state.",
			func(c jobs.Counters) uint64 { return c.Completed }},
		{"lwmd_jobs_failed_total", "Async jobs that reached the failed state (permanent error or retry budget exhausted).",
			func(c jobs.Counters) uint64 { return c.Failed }},
		{"lwmd_jobs_retries_total", "Async job execution attempts beyond each job's first.",
			func(c jobs.Counters) uint64 { return c.Retries }},
		{"lwmd_jobs_webhook_deliveries_total", "Terminal-status webhook pushes acknowledged with a 2xx.",
			func(c jobs.Counters) uint64 { return c.WebhookDeliveries }},
		{"lwmd_jobs_webhook_failures_total", "Terminal-status webhook pushes abandoned after delivery retries.",
			func(c jobs.Counters) uint64 { return c.WebhookFailures }},
		{"lwmd_jobs_evictions_total", "Terminal async jobs dropped by retention.",
			func(c jobs.Counters) uint64 { return c.Evictions }},
		{"lwmd_jobs_compactions_total", "Job write-ahead-log snapshot+truncate cycles.",
			func(c jobs.Counters) uint64 { return c.Compactions }},
	} {
		load := jc.load
		r.CounterFunc(jc.name, jc.help, nil,
			func() float64 { return float64(load(s.jobs.Counters())) })
	}
	for _, jg := range []struct {
		name, help string
		load       func(jobs.Counters) int64
	}{
		{"lwmd_jobs_queued", "Async jobs currently queued (including retry-delayed).",
			func(c jobs.Counters) int64 { return c.Queued }},
		{"lwmd_jobs_running", "Async jobs currently executing.",
			func(c jobs.Counters) int64 { return c.Running }},
		{"lwmd_jobs_resident", "Async jobs resident in the store, any state.",
			func(c jobs.Counters) int64 { return c.Jobs }},
		{"lwmd_jobs_wal_bytes", "Current job write-ahead-log size (0 for an in-memory manager).",
			func(c jobs.Counters) int64 { return c.WALBytes }},
	} {
		load := jg.load
		r.GaugeFunc(jg.name, jg.help, nil,
			func() float64 { return float64(load(s.jobs.Counters())) })
	}

	// Robustness-campaign series: the process-wide campaign counters plus
	// the per-server campaign duration histogram, observed on both the
	// sync and async execution paths.
	s.robustDur = r.Histogram("lwmd_robust_campaign_seconds",
		"Robustness campaign duration (re-marking, attack battery, and detection sweeps).", nil, nil)
	for _, rc := range []struct {
		name, help string
		load       func(robust.Counters) uint64
	}{
		{"lwmd_robust_campaigns_total", "Robustness campaigns run (process-wide; failures included).",
			func(c robust.Counters) uint64 { return c.Campaigns }},
		{"lwmd_robust_units_total", "Attack units executed across all campaigns (process-wide).",
			func(c robust.Counters) uint64 { return c.Units }},
		{"lwmd_robust_unit_errors_total", "Attack units that ended in an error instead of a verdict (process-wide).",
			func(c robust.Counters) uint64 { return c.UnitErrors }},
		{"lwmd_robust_scans_total", "Per-locality detections re-run after attacks (process-wide).",
			func(c robust.Counters) uint64 { return c.Scans }},
		{"lwmd_robust_survivals_total", "Post-attack scans in which the locality was still detected (process-wide).",
			func(c robust.Counters) uint64 { return c.Survivals }},
	} {
		load := rc.load
		r.CounterFunc(rc.name, rc.help, nil,
			func() float64 { return float64(load(robust.Stats())) })
	}

	for _, ec := range []struct {
		name, help string
		load       func() uint64
	}{
		{"lwmd_engine_pool_runs_total", "Worker-pool fan-outs started by the engine (process-wide).",
			func() uint64 { return engine.Stats().PoolRuns }},
		{"lwmd_engine_pool_jobs_total", "Jobs executed across all engine fan-outs (process-wide).",
			func() uint64 { return engine.Stats().PoolJobs }},
		{"lwmd_oracle_hits_total", "PathOracle longest-path cache hits (process-wide).",
			func() uint64 { h, _ := cdfg.OracleStats(); return h }},
		{"lwmd_oracle_misses_total", "PathOracle lookups that recomputed longest paths (process-wide).",
			func() uint64 { _, m := cdfg.OracleStats(); return m }},
	} {
		load := ec.load
		r.CounterFunc(ec.name, ec.help, nil, func() float64 { return float64(load()) })
	}

	if inj := s.cfg.Chaos; inj != nil {
		r.CounterFunc("lwmd_chaos_requests_total",
			"Requests seen by the fault injector.", nil,
			func() float64 { return float64(inj.Counters().Requests) })
		for _, fc := range []struct {
			kind string
			load func() uint64
		}{
			{"latency", func() uint64 { return inj.Counters().Latencies }},
			{"reset", func() uint64 { return inj.Counters().Resets }},
			{"error", func() uint64 { return inj.Counters().Errors }},
			{"truncate", func() uint64 { return inj.Counters().Truncations }},
		} {
			load := fc.load
			r.CounterFunc("lwmd_chaos_faults_total",
				"Injected faults by kind (latency, reset, error, truncate).",
				map[string]string{"kind": fc.kind},
				func() float64 { return float64(load()) })
		}
	}

	// Runtime vitals, bridged from runtime/metrics on every scrape.
	// Always registered: they cost one metrics.Read per series per scrape
	// and are the first thing an operator wants when the daemon misbehaves.
	r.GaugeFunc("lwmd_go_goroutines", "Live goroutines in the daemon process.", nil,
		func() float64 { return readRuntimeStat(runtimeGoroutines) })
	r.GaugeFunc("lwmd_go_heap_bytes", "Bytes of live heap objects (runtime/metrics /memory/classes/heap/objects).", nil,
		func() float64 { return readRuntimeStat(runtimeHeapBytes) })
	r.CounterFunc("lwmd_go_gc_pause_seconds", "Cumulative GC stop-the-world pause time, seconds.", nil,
		func() float64 { return readRuntimeStat(runtimeGCPauses) })

	// Flight-recorder series, present only when the recorder is enabled
	// (same gating discipline as the chaos family above).
	if rec := s.recorder; rec != nil {
		r.CounterFunc("lwmd_trace_recorded_total", "Completed requests offered to the flight recorder.", nil,
			func() float64 { return float64(rec.Counters().Recorded) })
		for _, kc := range []struct {
			reason string
			load   func(recorder.Counters) uint64
		}{
			{recorder.KeepError, func(c recorder.Counters) uint64 { return c.KeptError }},
			{recorder.KeepSlow, func(c recorder.Counters) uint64 { return c.KeptSlow }},
			{recorder.KeepSampled, func(c recorder.Counters) uint64 { return c.KeptSampled }},
		} {
			load := kc.load
			r.CounterFunc("lwmd_trace_kept_total",
				"Traces retained by the tail sampler, by keep reason (error, slow, sampled).",
				map[string]string{"reason": kc.reason},
				func() float64 { return float64(load(rec.Counters())) })
		}
		r.CounterFunc("lwmd_trace_dropped_total", "Completed requests the tail sampler dropped.", nil,
			func() float64 { return float64(rec.Counters().Dropped) })
		r.CounterFunc("lwmd_trace_evicted_total", "Retained traces evicted by the ring bound.", nil,
			func() float64 { return float64(rec.Counters().Evicted) })
		r.GaugeFunc("lwmd_trace_resident", "Traces currently retained.", nil,
			func() float64 { return float64(rec.Counters().Resident) })
		r.GaugeFunc("lwmd_trace_capacity", "Configured flight-recorder ring capacity.", nil,
			func() float64 { return float64(rec.Capacity()) })
	}

	// Profiling-observatory series, present only when -prof-dir is set.
	if prof := s.profiler; prof != nil {
		for _, pc := range []struct {
			name, help string
			load       func(profiler.Counters) uint64
		}{
			{"lwmd_prof_captures_total", "pprof snapshots written (all kinds).",
				func(c profiler.Counters) uint64 { return c.Captures }},
			{"lwmd_prof_cycles_total", "Capture cycles completed (periodic and triggered).",
				func(c profiler.Counters) uint64 { return c.Cycles }},
			{"lwmd_prof_triggered_total", "Capture cycles started by an SLO breach trigger.",
				func(c profiler.Counters) uint64 { return c.Triggered }},
			{"lwmd_prof_errors_total", "Snapshot writes that failed.",
				func(c profiler.Counters) uint64 { return c.Errors }},
			{"lwmd_prof_pruned_total", "Snapshots removed by per-kind retention.",
				func(c profiler.Counters) uint64 { return c.Pruned }},
		} {
			load := pc.load
			r.CounterFunc(pc.name, pc.help, nil,
				func() float64 { return float64(load(prof.Counters())) })
		}
		r.GaugeFunc("lwmd_prof_snapshots", "pprof snapshots currently resident on disk.", nil,
			func() float64 { return float64(prof.Counters().Snapshots) })
		r.GaugeFunc("lwmd_prof_bytes", "Bytes of resident pprof snapshots.", nil,
			func() float64 { return float64(prof.Counters().Bytes) })
	}
	return r
}

// MetricsHandler serves the server's registry in the Prometheus text
// exposition format — mounted at GET /metrics on both the service and
// debug muxes. Scrape it alongside /debug/vars; the histogram counts
// here and the expvar counters there move in lockstep.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, lwmapi.CodeMethodNotAllowed, "GET only")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
		// Tenant series are dynamic (the set changes on SIGHUP), so they
		// render straight from the meter after the static registry.
		s.meter.WritePrometheus(w, s.storeUsageOf)
	})
}

// snapshot renders the full metrics state as the plain map expvar.Func
// marshals. Engine and oracle counters are process-wide (see
// engine.Stats, cdfg.OracleStats); everything else is per server.
func (s *Server) snapshot() map[string]any {
	out := map[string]any{
		"uptime_seconds": time.Since(s.metrics.start).Seconds(),
		"draining":       s.draining.Load(),
	}
	eps := map[string]any{}
	for name, em := range s.metrics.endpoints {
		q := s.queues[name]
		eps[name] = map[string]any{
			"accepted":       em.accepted.Load(),
			"completed":      em.completed.Load(),
			"failed":         em.failed.Load(),
			"rejected_429":   em.rejected.Load(),
			"timeout_504":    em.timedOut.Load(),
			"panic_500":      em.panicked.Load(),
			"drained_503":    em.drained.Load(),
			"queue_depth":    q.depth(),
			"queue_capacity": cap(q.tasks),
			"p50_ms":         float64(em.lat.quantile(0.50)) / float64(time.Millisecond),
			"p99_ms":         float64(em.lat.quantile(0.99)) / float64(time.Millisecond),
		}
	}
	out["endpoints"] = eps

	fams := map[string]any{}
	for fam, per := range s.metrics.families {
		block := map[string]any{}
		for ep, fm := range per {
			block[ep] = map[string]any{
				"requests": fm.requests.Load(),
				"errors":   fm.errors.Load(),
			}
		}
		fams[fam] = block
	}
	out["families"] = fams

	hits, misses := cdfg.OracleStats()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	out["path_oracle"] = map[string]any{
		"hits": hits, "misses": misses, "hit_rate": rate,
	}
	es := engine.Stats()
	out["engine"] = map[string]any{
		"pool_runs": es.PoolRuns,
		"pool_jobs": es.PoolJobs,
	}
	sc := s.store.Counters()
	out["store"] = map[string]any{
		"hits":        sc.Hits,
		"misses":      sc.Misses,
		"puts":        sc.Puts,
		"evictions":   sc.Evictions,
		"compactions": sc.Compactions,
		"entries":     sc.Entries,
		"bytes":       sc.Bytes,
		"wal_bytes":   sc.WALBytes,
	}
	jc := s.jobs.Counters()
	out["jobs"] = map[string]any{
		"submitted":          jc.Submitted,
		"deduped":            jc.Deduped,
		"completed":          jc.Completed,
		"failed":             jc.Failed,
		"retries":            jc.Retries,
		"webhook_deliveries": jc.WebhookDeliveries,
		"webhook_failures":   jc.WebhookFailures,
		"evictions":          jc.Evictions,
		"compactions":        jc.Compactions,
		"queued":             jc.Queued,
		"running":            jc.Running,
		"resident":           jc.Jobs,
		"wal_bytes":          jc.WALBytes,
	}
	rc := robust.Stats()
	out["robust"] = map[string]any{
		"campaigns":   rc.Campaigns,
		"units":       rc.Units,
		"unit_errors": rc.UnitErrors,
		"scans":       rc.Scans,
		"survivals":   rc.Survivals,
	}
	out["tenants"] = s.meter.Snapshot(s.storeUsageOf)
	if s.cfg.Chaos != nil {
		out["chaos"] = s.cfg.Chaos.Snapshot()
	}
	out["runtime"] = map[string]any{
		"goroutines":       readRuntimeStat(runtimeGoroutines),
		"heap_bytes":       readRuntimeStat(runtimeHeapBytes),
		"gc_pause_seconds": readRuntimeStat(runtimeGCPauses),
	}
	if rec := s.recorder; rec != nil {
		tc := rec.Counters()
		out["traces"] = map[string]any{
			"recorded":     tc.Recorded,
			"kept":         tc.Kept,
			"kept_error":   tc.KeptError,
			"kept_slow":    tc.KeptSlow,
			"kept_sampled": tc.KeptSampled,
			"dropped":      tc.Dropped,
			"evicted":      tc.Evicted,
			"resident":     tc.Resident,
			"capacity":     rec.Capacity(),
			"endpoints":    rec.Endpoints(),
		}
	}
	if prof := s.profiler; prof != nil {
		pc := prof.Counters()
		out["profiler"] = map[string]any{
			"captures":  pc.Captures,
			"cycles":    pc.Cycles,
			"triggered": pc.Triggered,
			"errors":    pc.Errors,
			"pruned":    pc.Pruned,
			"snapshots": pc.Snapshots,
			"bytes":     pc.Bytes,
		}
	}
	return out
}

// The process-global expvar name "lwmd" always reflects the most
// recently published server. expvar.Publish panics on duplicate names,
// so the Func is registered once and reads through publishedServer —
// earlier servers (a drained daemon in a test process, say) stop being
// snapshotted the moment a successor publishes, instead of the old
// behavior where the first server kept the name forever and every later
// Publish silently no-opped.
var (
	publishOnce     sync.Once
	publishedServer atomic.Pointer[Server]
)

// Publish registers (or re-points) the server's metrics snapshot under
// the expvar name "lwmd", making it visible on any /debug/vars page in
// the process. The last server to call this wins the name; the daemon
// (which runs exactly one server) calls it at startup.
func (s *Server) Publish() {
	publishedServer.Store(s)
	publishOnce.Do(func() {
		expvar.Publish("lwmd", expvar.Func(func() any {
			if cur := publishedServer.Load(); cur != nil {
				return cur.snapshot()
			}
			return nil
		}))
	})
}
