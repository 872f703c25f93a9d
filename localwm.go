// Package localwm is the public face of the local-watermarking library: a
// from-scratch reproduction of "Local Watermarks: Methodology and
// Application to Behavioral Synthesis" (Kirovski & Potkonjak), including
// the full behavioral-synthesis substrate its evaluation depends on.
//
// The implementation lives in focused internal packages; this package
// re-exports the surface a downstream user needs:
//
//   - design modeling: CDFG construction, parsing, analysis (cdfg)
//   - synthesis: scheduling and template mapping (sched, tmatch)
//   - watermarking: embed/detect/verify for scheduling solutions
//     (schedwm), template matchings (tmwm), and graph colorings (gcolor)
//   - evaluation: the VLIW machine model, benchmark designs, attack
//     simulation (vliw, designs, attack)
//
// Quickstart:
//
//	design := localwm.FourthOrderParallelIIR()
//	wm, err := localwm.EmbedSchedulingWatermark(design,
//	        localwm.Signature("alice"), localwm.SchedulingConfig{
//	                Tau: 12, K: 3, Epsilon: 0.2, Budget: 10,
//	        })
//	schedule, err := localwm.Schedule(design, true)
//	shipped := design.Clone()
//	shipped.ClearTemporalEdges()
//	det, err := localwm.DetectSchedulingWatermark(shipped, schedule, wm.Record())
//
// See the runnable programs under examples/ and the experiment
// reproduction harness in cmd/tables.
package localwm

import (
	"io"

	"localwm/internal/cdfg"
	"localwm/internal/chaos"
	"localwm/internal/designs"
	"localwm/internal/engine"
	"localwm/internal/obs"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/internal/server"
	"localwm/internal/tmatch"
	"localwm/internal/tmwm"
	"localwm/lwmclient"
)

// Core modeling types.
type (
	// Graph is a control-data flow graph with homogeneous-SDF semantics.
	Graph = cdfg.Graph
	// NodeID names a node within one Graph.
	NodeID = cdfg.NodeID
	// Op is an operation kind.
	Op = cdfg.Op
	// Signature is an author's digital signature; it keys every
	// watermarking decision.
	Signature = prng.Signature
)

// Scheduling types.
type (
	// Schedule assigns control steps to operations.
	ScheduleResult = sched.Schedule
	// SchedulingConfig parameterizes scheduling-watermark embedding.
	SchedulingConfig = schedwm.Config
	// SchedulingWatermark is an embedded scheduling watermark.
	SchedulingWatermark = schedwm.Watermark
	// SchedulingRecord is the detector-facing description of a
	// scheduling watermark.
	SchedulingRecord = schedwm.Record
	// SchedulingDetection is the result of scanning a suspect schedule.
	SchedulingDetection = schedwm.Detection
	// SchedulingSuspect pairs a suspect design with its schedule for
	// batch detection.
	SchedulingSuspect = engine.Suspect
	// SchedulingDetectResult is one suspect×record outcome of a batch
	// detection.
	SchedulingDetectResult = engine.DetectResult
)

// Template-matching types.
type (
	// TemplateLibrary is a module library for template mapping.
	TemplateLibrary = tmatch.Library
	// TemplateConfig parameterizes template-watermark embedding.
	TemplateConfig = tmwm.Config
	// TemplateWatermark is an embedded template-matching watermark.
	TemplateWatermark = tmwm.Watermark
	// TemplateRecord is the detector-facing description.
	TemplateRecord = tmwm.Record
)

// Common operation kinds and edge kinds, re-exported for graph
// construction without importing internal packages (the full taxonomy
// lives in internal/cdfg).
const (
	OpInput    = cdfg.OpInput
	OpOutput   = cdfg.OpOutput
	OpAdd      = cdfg.OpAdd
	OpSub      = cdfg.OpSub
	OpMul      = cdfg.OpMul
	OpMulConst = cdfg.OpMulConst
	OpDelay    = cdfg.OpDelay

	DataEdge     = cdfg.DataEdge
	ControlEdge  = cdfg.ControlEdge
	TemporalEdge = cdfg.TemporalEdge
)

// NewGraph returns an empty CDFG with a capacity hint.
func NewGraph(n int) *Graph { return cdfg.New(n) }

// StandardLibrary returns the default template library.
func StandardLibrary() *TemplateLibrary { return tmatch.StandardLibrary() }

// EmbedSchedulingWatermark embeds one local scheduling watermark into g.
func EmbedSchedulingWatermark(g *Graph, sig Signature, cfg SchedulingConfig) (*SchedulingWatermark, error) {
	return schedwm.Embed(g, sig, cfg)
}

// EmbedSchedulingWatermarks embeds up to n independent local watermarks,
// one after another: each is judged against the temporal edges of the
// ones before it.
func EmbedSchedulingWatermarks(g *Graph, sig Signature, cfg SchedulingConfig, n int) ([]*SchedulingWatermark, error) {
	return schedwm.EmbedMany(g, sig, cfg, n)
}

// DetectSchedulingWatermark scans a suspect scheduled design for a
// memorized watermark record.
func DetectSchedulingWatermark(g *Graph, s *ScheduleResult, rec SchedulingRecord) (*SchedulingDetection, error) {
	return schedwm.Detect(g, s, rec)
}

// VerifySchedulingOwnership adjudicates an ownership claim by re-deriving
// the constraints from the claimed signature on a clone of g and checking
// them against the suspect schedule.
func VerifySchedulingOwnership(g *Graph, s *ScheduleResult, sig Signature, cfg SchedulingConfig, n int) (*SchedulingDetection, error) {
	return schedwm.VerifyOwnership(g, s, sig, cfg, n)
}

// DetectSchedulingWatermarks checks many records against many suspect
// designs at once on cfg-independent worker fan-out: out[i][j] is record j
// scanned in suspect i. It wraps engine.DetectBatch; workers <= 1 runs
// sequentially with identical results.
func DetectSchedulingWatermarks(suspects []SchedulingSuspect, recs []SchedulingRecord, workers int) [][]SchedulingDetectResult {
	return engine.DetectBatch(suspects, recs, workers)
}

// EmbedTemplateWatermark enforces Z signature-selected matchings on g.
func EmbedTemplateWatermark(g *Graph, sig Signature, cfg TemplateConfig) (*TemplateWatermark, error) {
	return tmwm.Embed(g, sig, cfg)
}

// Schedule list-schedules g (honoring watermark temporal edges when
// useTemporal is set) with unlimited resources.
func Schedule(g *Graph, useTemporal bool) (*ScheduleResult, error) {
	return sched.ListSchedule(g, sched.ListOpts{UseTemporal: useTemporal})
}

// Benchmark designs (see internal/designs for the full set).
var (
	// FourthOrderParallelIIR is the paper's running example.
	FourthOrderParallelIIR = designs.FourthOrderParallelIIR
	// EighthOrderCFIIR is the Table II cascade IIR.
	EighthOrderCFIIR = designs.EighthOrderCFIIR
)

// ParseGraph reads a design in the text format (see cdfg.Parse).
var ParseGraph = cdfg.Parse

// WriteGraph writes a design in the text format (see cdfg.Write).
var WriteGraph = cdfg.Write

// ParseSchedule reads a schedule in the text format, resolving node
// names against g (see sched.ParseSchedule).
func ParseSchedule(g *Graph, r io.Reader) (*ScheduleResult, error) {
	return sched.ParseSchedule(g, r)
}

// WriteSchedule writes s in the text schedule format (see
// sched.WriteSchedule).
func WriteSchedule(w io.Writer, g *Graph, s *ScheduleResult) error {
	return sched.WriteSchedule(w, g, s)
}

// Service surface: the watermarking daemon behind cmd/lwmd, embeddable
// in a larger process.
type (
	// ServiceConfig sizes the daemon's worker pools, admission queues,
	// and deadlines; the zero value serves with defaults.
	ServiceConfig = server.Config
	// Service is the HTTP watermarking service. Mount Handler() on the
	// serving port, DebugHandler() on a loopback-only port, and call
	// Shutdown to drain gracefully.
	Service = server.Server
	// EngineCounters is a snapshot of the engine's cumulative worker-pool
	// activity.
	EngineCounters = engine.Counters
)

// NewService builds a watermarking service and starts its worker pools.
func NewService(cfg ServiceConfig) *Service { return server.New(cfg) }

// Resilient-client surface: the HTTP client behind `lwm -remote`,
// embeddable in a downstream process that talks to a lwmd daemon.
type (
	// ClientConfig parameterizes the resilient service client: deadlines,
	// retry backoff, circuit breaker, and batch chunking. Only BaseURL is
	// required.
	ClientConfig = lwmclient.Config
	// Client is the resilient lwmd client: capped exponential backoff
	// with full jitter, Retry-After honoring, a rolling-window circuit
	// breaker, and chunked batch detection with partial results.
	Client = lwmclient.Client
	// ClientBreakerConfig tunes the client's circuit breaker.
	ClientBreakerConfig = lwmclient.BreakerConfig
	// ClientCounters is a snapshot of a client's attempt, retry, and
	// breaker activity.
	ClientCounters = lwmclient.Counters
)

// NewClient builds a resilient client for the lwmd service at
// cfg.BaseURL.
func NewClient(cfg ClientConfig) (*Client, error) { return lwmclient.New(cfg) }

// Fault-injection surface: the deterministic chaos layer behind
// `lwmd -chaos`, for exercising resilience in tests (never production).
type (
	// ChaosConfig sets seeded per-request fault probabilities: latency,
	// connection resets, substituted 500s, truncated bodies.
	ChaosConfig = chaos.Config
	// ChaosInjector is HTTP middleware injecting the configured faults;
	// assign one to ServiceConfig.Chaos to fault a Service's /v1 API.
	ChaosInjector = chaos.Injector
)

// NewChaosInjector builds a deterministic fault injector; a given seed
// and request order replays the same fault sequence.
func NewChaosInjector(cfg ChaosConfig) *ChaosInjector { return chaos.New(cfg) }

// EngineStats returns the process-wide parallel-engine counters.
func EngineStats() EngineCounters { return engine.Stats() }

// OracleStats reports cumulative longest-path cache hits and misses
// across every cdfg.PathOracle in the process.
var OracleStats = cdfg.OracleStats

// Observability surface (internal/obs): request tracing, structured
// request logging, and Prometheus-style metrics.
//
// Tracing: attach a Trace to a context with WithTrace and pass that
// context to a Client call — the client hangs its attempt/backoff spans
// on it, sends the trace ID in TraceHeader, and the daemon logs its
// side under the same ID. The Service exposes the Prometheus scrape on
// GET /metrics of both Handler() and DebugHandler(); a Client exposes
// its own lwmclient_* counters via Client.WritePrometheus, for
// embedding applications that serve their own metrics page.
type (
	// Trace is a process-local span collection for one logical request.
	Trace = obs.Trace
	// TraceID identifies one logical request across processes; it
	// travels in the TraceHeader HTTP header.
	TraceID = obs.TraceID
	// TraceSpan is one named, timed region of a Trace.
	TraceSpan = obs.Span
	// MetricsRegistry is a Prometheus-style registry of counters,
	// gauges, and fixed-bucket histograms (text exposition format 0.0.4
	// via WritePrometheus).
	MetricsRegistry = obs.Registry
	// MetricsHistogram is a fixed-bucket latency histogram.
	MetricsHistogram = obs.Histogram
)

// Trace-propagation constants: the request and response headers the
// client and daemon exchange.
const (
	// TraceHeader carries the trace ID from client to daemon.
	TraceHeader = obs.TraceHeader
	// TimingHeader carries the daemon's queue-wait/run stage timings
	// back to a tracing client.
	TimingHeader = obs.TimingHeader
)

// NewTrace starts an empty trace under the given ID.
var NewTrace = obs.NewTrace

// NewTraceID returns a process-unique trace ID.
var NewTraceID = obs.NewTraceID

// WithTrace attaches a trace to a context (see obs.WithTrace);
// TraceFromContext retrieves it.
var (
	WithTrace        = obs.WithTrace
	TraceFromContext = obs.TraceFrom
)

// NewMetricsRegistry returns an empty metrics registry.
var NewMetricsRegistry = obs.NewRegistry

// NewStructuredLogger builds a log/slog logger in the daemon's format
// ("text" or "json") at the given level, suitable for
// ServiceConfig.Logger, ClientConfig.Logger, and ChaosConfig.Logger.
var NewStructuredLogger = obs.NewLogger

// ParseLogLevel maps "debug", "info", "warn", or "error" to a
// slog.Level for NewStructuredLogger.
var ParseLogLevel = obs.ParseLevel
