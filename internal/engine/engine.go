// Package engine runs localwm's embedding, detection, and ownership-
// verification drivers under a context, fanning batch work out on a
// deterministic worker pool.
//
// Embedding is sequential: each local watermark is judged against the
// temporal edges of the ones before it (the paper's Fig. 2), so
// EmbedManyCtx is schedwm.EmbedMany inside an "engine.embed" span, and
// VerifyOwnershipCtx is schedwm.VerifyOwnership inside "engine.verify".
//
// Batches fan out. Detection and verification only read the suspect
// graph, so DetectBatch scans every suspect×record pair and VerifyBatch
// every suspect concurrently; concurrent queries share the suspect's
// PathOracle. Results are assembled by index, so for every workers value
// they are bit-identical to the sequential loops, down to error messages.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"localwm/internal/cdfg"
	"localwm/internal/obs"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
)

// Process-wide engine counters, exported for the lwmd daemon's metrics.
// All monotonic; consumers difference snapshots for rates.
var counters struct {
	poolRuns atomic.Uint64 // worker-pool fan-outs started
	poolJobs atomic.Uint64 // jobs executed across all fan-outs
}

// Counters is a snapshot of the engine's cumulative activity.
type Counters struct {
	// PoolRuns and PoolJobs count worker-pool fan-outs and the jobs they
	// executed (a fan-out with one worker still counts its jobs).
	PoolRuns, PoolJobs uint64
	// SpecCommits, SpecRepairs and SeqDegrades always read 0; they remain
	// only because lwmbench/ compiles against them.
	SpecCommits, SpecRepairs, SeqDegrades uint64
}

// Stats returns the process-wide engine counters since start.
func Stats() Counters {
	return Counters{
		PoolRuns: counters.poolRuns.Load(),
		PoolJobs: counters.poolJobs.Load(),
	}
}

// EmbedMany is schedwm.EmbedMany. workers is ignored; the parameter
// remains only because lwmbench/ compiles against this signature.
func EmbedMany(g *cdfg.Graph, sig prng.Signature, cfg schedwm.Config, n, workers int) ([]*schedwm.Watermark, error) {
	return EmbedManyCtx(context.Background(), g, sig, cfg, n)
}

// EmbedManyCtx embeds n local watermarks with schedwm.EmbedMany, recorded
// as an "engine.embed" span when ctx carries an obs.Trace.
func EmbedManyCtx(ctx context.Context, g *cdfg.Graph, sig prng.Signature, cfg schedwm.Config, n int) ([]*schedwm.Watermark, error) {
	_, span := obs.StartSpan(ctx, "engine.embed")
	defer span.Finish()
	span.SetAttr("n", n)
	return schedwm.EmbedMany(g, sig, cfg, n)
}

// Suspect pairs a design with the schedule it ships under, the unit
// detection and verification operate on.
type Suspect struct {
	Graph    *cdfg.Graph
	Schedule *sched.Schedule
}

// DetectResult is the outcome of one suspect×record detection.
type DetectResult struct {
	Det *schedwm.Detection
	Err error
}

// DetectBatch runs schedwm.Detect for every suspect×record pair on a
// worker pool: out[i][j] is the result for suspects[i] against recs[j].
// Each suspect's schedwm.Scan (windows, roots, fingerprints) is built
// once, by the first job that needs it, and shared by all of its records.
// Detection only reads the suspect graph (concurrent window queries share
// its PathOracle), so one Suspect may appear under many records at once.
func DetectBatch(suspects []Suspect, recs []schedwm.Record, workers int) [][]DetectResult {
	return DetectBatchCtx(context.Background(), suspects, recs, workers)
}

// DetectBatchCtx is DetectBatch under a context: with an obs.Trace
// attached, the pool fan-out and each suspect×record scan record spans.
func DetectBatchCtx(ctx context.Context, suspects []Suspect, recs []schedwm.Record, workers int) [][]DetectResult {
	out := make([][]DetectResult, len(suspects))
	for i := range out {
		out[i] = make([]DetectResult, len(recs))
	}
	if len(suspects) == 0 || len(recs) == 0 {
		return out
	}
	_, batchSpan := obs.StartSpan(ctx, "engine.detect_batch")
	defer batchSpan.Finish()
	batchSpan.SetAttr("suspects", len(suspects))
	batchSpan.SetAttr("records", len(recs))
	scans := make([]func() *schedwm.Scan, len(suspects))
	for i, sp := range suspects {
		scans[i] = sync.OnceValue(func() *schedwm.Scan { return schedwm.NewScan(sp.Graph, sp.Schedule) })
	}
	tr := obs.TraceFrom(ctx)
	runPool(workers, len(suspects)*len(recs), func(job int) {
		i, j := job/len(recs), job%len(recs)
		var span *obs.Span
		if tr != nil {
			span = tr.StartSpan(batchSpan, fmt.Sprintf("engine.detect[%d][%d]", i, j))
		}
		det, err := scans[i]().Detect(recs[j])
		out[i][j] = DetectResult{Det: det, Err: err}
		span.Finish()
	})
	return out
}

// VerifyOwnershipCtx adjudicates an ownership claim with
// schedwm.VerifyOwnership — re-derive the claimed watermarks on a clone
// of the suspect design, then check every re-derived constraint against
// the suspect schedule — recorded as an "engine.verify" span when ctx
// carries an obs.Trace.
func VerifyOwnershipCtx(ctx context.Context, g *cdfg.Graph, s *sched.Schedule, sig prng.Signature,
	cfg schedwm.Config, n int) (*schedwm.Detection, error) {
	_, span := obs.StartSpan(ctx, "engine.verify")
	defer span.Finish()
	return schedwm.VerifyOwnership(g, s, sig, cfg, n)
}

// VerifyBatch adjudicates one ownership claim against many suspects,
// fanning the per-suspect verifications out across the pool. out[i] is the
// claim checked against suspects[i].
func VerifyBatch(suspects []Suspect, sig prng.Signature, cfg schedwm.Config, n, workers int) []DetectResult {
	out := make([]DetectResult, len(suspects))
	runPool(workers, len(suspects), func(i int) {
		det, err := schedwm.VerifyOwnership(suspects[i].Graph, suspects[i].Schedule, sig, cfg, n)
		out[i] = DetectResult{Det: det, Err: err}
	})
	return out
}

// runPool executes run(0..jobs-1) on up to workers goroutines and waits
// for completion. Job order across workers is unspecified; callers own any
// ordering guarantees (the engine's entry points assemble results by
// index, never by completion).
func runPool(workers, jobs int, run func(job int)) {
	if jobs <= 0 {
		return
	}
	counters.poolRuns.Add(1)
	counters.poolJobs.Add(uint64(jobs))
	if workers > jobs {
		workers = jobs
	}
	if workers <= 1 {
		for j := 0; j < jobs; j++ {
			run(j)
		}
		return
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				run(j)
			}
		}()
	}
	for j := 0; j < jobs; j++ {
		ch <- j
	}
	close(ch)
	wg.Wait()
}
