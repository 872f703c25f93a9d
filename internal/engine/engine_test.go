package engine

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
)

// testDesigns is the cross-section the determinism properties run over:
// every structural regime the registry has — cascades, controllers,
// filters, the large D/A converter, and a layered MediaBench graph.
func testDesigns(t *testing.T) map[string]*cdfg.Graph {
	t.Helper()
	out := map[string]*cdfg.Graph{
		"iir4": designs.FourthOrderParallelIIR(),
	}
	for _, row := range designs.Table2() {
		if row.Name == "Long Echo Canceler" && testing.Short() {
			continue
		}
		out[row.Name] = row.Build()
	}
	out["mediabench1"] = designs.Layered(designs.MediaBench()[1].Cfg)
	return out
}

func dump(t *testing.T, g *cdfg.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cdfg.Write(&buf, g); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

// TestEmbedBitIdenticalAcrossWorkerCounts: EmbedMany ignores its worker
// count, so every value produces byte-for-byte the sequential marked
// design and structurally identical watermarks. It is also the
// determinism property test: repeated runs go through the same comparison
// against the sequential reference.
func TestEmbedBitIdenticalAcrossWorkerCounts(t *testing.T) {
	cfg := schedwm.Config{Tau: 14, K: 3, Epsilon: 0.2}
	const n = 8
	for name, g := range testDesigns(t) {
		t.Run(name, func(t *testing.T) {
			ref := g.Clone()
			want, wantErr := schedwm.EmbedMany(ref, prng.Signature("alice"), cfg, n)
			wantDump := dump(t, ref)
			for _, workers := range []int{1, 2, 8} {
				got := g.Clone()
				wms, err := EmbedMany(got, prng.Signature("alice"), cfg, n, workers)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("workers=%d: err %v, sequential err %v", workers, err, wantErr)
				}
				if err != nil {
					if err.Error() != wantErr.Error() {
						t.Fatalf("workers=%d: err %q, sequential %q", workers, err, wantErr)
					}
					continue
				}
				if len(wms) != len(want) {
					t.Fatalf("workers=%d: %d watermarks, sequential %d", workers, len(wms), len(want))
				}
				for i := range wms {
					if !reflect.DeepEqual(wms[i], want[i]) {
						t.Errorf("workers=%d: watermark %d differs:\n got %+v\nwant %+v",
							workers, i, wms[i], want[i])
					}
				}
				if gotDump := dump(t, got); !bytes.Equal(gotDump, wantDump) {
					t.Errorf("workers=%d: marked design differs from sequential", workers)
				}
			}
		})
	}
}

// TestEmbedBitIdenticalConflictHeavy forces overlapping localities — a
// small design, many watermarks, generous K — where each watermark's
// placement depends most on the temporal edges of the ones before it.
func TestEmbedBitIdenticalConflictHeavy(t *testing.T) {
	g := designs.WaveletFilter()
	cfg := schedwm.Config{Tau: 12, K: 4, Epsilon: 0.1, Budget: 40}
	const n = 12
	ref := g.Clone()
	want, err := schedwm.EmbedMany(ref, prng.Signature("bob"), cfg, n)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	for _, workers := range []int{2, 3, 8} {
		got := g.Clone()
		wms, err := EmbedMany(got, prng.Signature("bob"), cfg, n, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(wms, want) {
			t.Fatalf("workers=%d: watermarks diverged from sequential", workers)
		}
		if !bytes.Equal(dump(t, got), dump(t, ref)) {
			t.Fatalf("workers=%d: marked design diverged from sequential", workers)
		}
	}
}

// TestEmbedPinnedRoot covers the cfg.Root != nil regime, where no root is
// drawn from the master stream.
func TestEmbedPinnedRoot(t *testing.T) {
	g := designs.FourthOrderParallelIIR()
	root, _ := designs.IIRSubtree(g)
	cfg := schedwm.Config{Tau: 10, K: 2, Epsilon: 0.2, Root: &root}
	ref := g.Clone()
	want, wantErr := schedwm.EmbedMany(ref, prng.Signature("alice"), cfg, 4)
	got := g.Clone()
	wms, err := EmbedMany(got, prng.Signature("alice"), cfg, 4, 4)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("err %v, sequential %v", err, wantErr)
	}
	if !reflect.DeepEqual(wms, want) {
		t.Fatalf("watermarks diverged under pinned root")
	}
	if !bytes.Equal(dump(t, got), dump(t, ref)) {
		t.Fatalf("marked design diverged under pinned root")
	}
}

// TestEmbedErrorsIdentical checks the failure surface: invalid configs and
// impossible embeddings must fail with the sequential error text.
func TestEmbedErrorsIdentical(t *testing.T) {
	g := designs.ModemFilter()
	cases := []schedwm.Config{
		{Tau: 0, K: 3, Epsilon: 0.2},             // invalid τ
		{Tau: 10, K: 3, Epsilon: 0.2, Budget: 1}, // budget below critical path
		{Tau: 10, K: 3, Epsilon: 2},              // ε out of range
	}
	for i, cfg := range cases {
		_, wantErr := schedwm.EmbedMany(g.Clone(), prng.Signature("alice"), cfg, 3)
		_, err := EmbedMany(g.Clone(), prng.Signature("alice"), cfg, 3, 4)
		if wantErr == nil || err == nil {
			t.Fatalf("case %d: expected errors, got %v / %v", i, wantErr, err)
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("case %d: err %q, sequential %q", i, err, wantErr)
		}
	}
	if _, err := EmbedMany(g.Clone(), prng.Signature(""), schedwm.Config{Tau: 10, K: 3, Epsilon: 0.2}, 3, 4); err == nil {
		t.Fatalf("empty signature must fail like the sequential path")
	}
}

// markedSuspect embeds and schedules one suspect design for the detection
// tests.
func markedSuspect(t *testing.T, g *cdfg.Graph, sig string, n int) (Suspect, []schedwm.Record, schedwm.Config) {
	t.Helper()
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatalf("critical path: %v", err)
	}
	cfg := schedwm.Config{Tau: 14, K: 3, Epsilon: 0.1, Budget: cp + cp/2 + 2}
	wms, err := schedwm.EmbedMany(g, prng.Signature(sig), cfg, n)
	if err != nil {
		t.Fatalf("embed: %v", err)
	}
	s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	recs := make([]schedwm.Record, len(wms))
	for i, wm := range wms {
		recs[i] = wm.Record()
	}
	return Suspect{Graph: g, Schedule: s}, recs, cfg
}

// TestDetectBatchMatchesSequential fans detection out across suspects and
// records and compares every cell against a direct schedwm.Detect call,
// also with a single scheduling CPU, where the pool's goroutines
// time-slice one P.
func TestDetectBatchMatchesSequential(t *testing.T) {
	for _, procs := range []int{0, 1} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			if procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			}
			detectBatchMatchesSequential(t)
		})
	}
}

func detectBatchMatchesSequential(t *testing.T) {
	susA, recsA, _ := markedSuspect(t, designs.WaveletFilter(), "alice", 3)
	susB, recsB, _ := markedSuspect(t, designs.ModemFilter(), "bob", 3)
	suspects := []Suspect{susA, susB}
	recs := append(append([]schedwm.Record{}, recsA...), recsB...)

	got := DetectBatch(suspects, recs, 8)
	for i, sus := range suspects {
		for j, rec := range recs {
			want, wantErr := schedwm.Detect(sus.Graph, sus.Schedule, rec)
			cell := got[i][j]
			if (cell.Err == nil) != (wantErr == nil) {
				t.Fatalf("cell %d,%d: err %v, sequential %v", i, j, cell.Err, wantErr)
			}
			if wantErr == nil && !reflect.DeepEqual(cell.Det, want) {
				t.Errorf("cell %d,%d: detection differs from sequential", i, j)
			}
		}
	}
	// Own-signature records must be found. (Cross-signature cells are not
	// asserted: a short record can be satisfied by coincidence — exactly
	// the case Detection.Convincing discounts.)
	for i := range suspects {
		for j := range recs {
			if own := (i == 0) == (j < len(recsA)); own && !got[i][j].Det.Found {
				t.Errorf("cell %d,%d: own watermark not found", i, j)
			}
		}
	}
}

// TestConcurrentDetectSharedGraph is the race stress test: many goroutines
// detect against one shared suspect graph (and its shared PathOracle)
// while others verify ownership, all without cloning. Run under -race.
func TestConcurrentDetectSharedGraph(t *testing.T) {
	g := designs.LinearGEController()
	sus, recs, cfg := markedSuspect(t, g, "alice", 4)
	want := make([]*schedwm.Detection, len(recs))
	for i, rec := range recs {
		var err error
		want[i], err = schedwm.Detect(sus.Graph, sus.Schedule, rec)
		if err != nil {
			t.Fatalf("detect %d: %v", i, err)
		}
	}
	wantVerify, err := schedwm.VerifyOwnership(sus.Graph, sus.Schedule, prng.Signature("alice"), cfg, 4)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}

	const goroutines = 8
	const iters = 5
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*iters)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if w%2 == 0 {
					rec := recs[(w+it)%len(recs)]
					det, err := schedwm.Detect(sus.Graph, sus.Schedule, rec)
					if err != nil {
						errc <- err
						return
					}
					if !reflect.DeepEqual(det, want[(w+it)%len(recs)]) {
						errc <- fmt.Errorf("goroutine %d: detection diverged", w)
						return
					}
				} else {
					det, err := VerifyOwnershipCtx(context.Background(), sus.Graph, sus.Schedule, prng.Signature("alice"), cfg, 4)
					if err != nil {
						errc <- err
						return
					}
					if !reflect.DeepEqual(det, wantVerify) {
						errc <- fmt.Errorf("goroutine %d: verification diverged", w)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestVerifyOwnershipParallelMatches compares the engine's verification,
// alone and fanned out across suspects, against the sequential one for
// both a true and a false claim, also with a single scheduling CPU.
func TestVerifyOwnershipParallelMatches(t *testing.T) {
	g := designs.WaveletFilter()
	sus, _, cfg := markedSuspect(t, g, "alice", 3)
	for _, procs := range []int{0, 1} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			if procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			}
			for _, sig := range []string{"alice", "mallory"} {
				want, wantErr := schedwm.VerifyOwnership(sus.Graph, sus.Schedule, prng.Signature(sig), cfg, 3)
				if wantErr != nil {
					t.Fatalf("sig %q: sequential: %v", sig, wantErr)
				}
				got, err := VerifyOwnershipCtx(context.Background(), sus.Graph, sus.Schedule, prng.Signature(sig), cfg, 3)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("sig %q: verification diverged (err %v)", sig, err)
				}
				for _, workers := range []int{2, 8} {
					batch := VerifyBatch([]Suspect{sus, sus, sus}, prng.Signature(sig), cfg, 3, workers)
					for i, cell := range batch {
						if cell.Err != nil {
							t.Fatalf("sig %q workers %d batch %d: %v", sig, workers, i, cell.Err)
						}
						if !reflect.DeepEqual(cell.Det, want) {
							t.Fatalf("sig %q workers %d batch %d: diverged from sequential", sig, workers, i)
						}
					}
				}
			}
		})
	}
}

// TestStatsCounters checks the process-wide activity counters the lwmd
// daemon surfaces. Counters are global and monotone, so the test asserts
// deltas around its own work rather than absolute values.
func TestStatsCounters(t *testing.T) {
	g := designs.FourthOrderParallelIIR()
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	cfg := schedwm.Config{Tau: 14, K: 3, Epsilon: 0.1, Budget: cp + cp/2 + 2}
	work := g.Clone()
	wms, err := EmbedMany(work, prng.Signature("counter"), cfg, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedule(work, sched.ListOpts{UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	var recs []schedwm.Record
	for _, wm := range wms {
		recs = append(recs, wm.Record())
	}

	// Detection fans out on the pool: one run, one job per record.
	before := Stats()
	DetectBatch([]Suspect{{Graph: work, Schedule: s}}, recs, 4)
	after := Stats()
	if after.PoolRuns <= before.PoolRuns {
		t.Fatalf("PoolRuns did not advance: %d -> %d", before.PoolRuns, after.PoolRuns)
	}
	if after.PoolJobs < before.PoolJobs+uint64(len(recs)) {
		t.Fatalf("DetectBatch jobs advanced %d, want >= %d", after.PoolJobs-before.PoolJobs, len(recs))
	}
}
