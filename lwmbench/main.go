// Command lwmbench is the lwmd service benchmark. It boots an in-process
// daemon (server.Config{} defaults plus a store on a temp directory),
// drives one of three closed-loop workloads through the /v1 HTTP API,
// checks every answer against an offline sequential reference, and
// prints the end-to-end metrics; with -trace 1 it instead times each
// layer's public functions on the same inputs and prints the per-layer
// metrics. See README.md for the workloads, metrics and how to read the
// output. Run it from the repository root:
//
//	bash lwmbench/run.sh --workload audit --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A wrong answer, a failed request, or a golden-digest mismatch at the
// default seed makes the command exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/engine"
	"localwm/internal/store"
)

// defaultSeed is the seed whose reference answers are checked in under
// goldenDir.
const defaultSeed = 1

// Paths relative to the repository root, where the benchmark runs.
const (
	outDir    = ".bench_build"    // temp stores and span dumps
	goldenDir = "lwmbench/golden" // the default seed's reference digests
)

// setups is the number of daemon set-ups per run; setup_s adds their
// median to the reference time.
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "audit, mark, or light")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds (whole passes of the request list)")
	trace := flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	writeGolden := flag.Bool("write-golden", false, "write the reference digests for -seed to -golden and exit")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "lwmbench: need -seconds >= 1 and -trace 0|1")
		return 2
	}
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lwmbench:", err)
		return 2
	}

	gen, err := generate(*workload, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lwmbench:", err)
		return 2
	}
	fmt.Printf("workload %s  seed %d  inputs %s  GOMAXPROCS %d\n", *workload, *seed, gen.digest, runtime.GOMAXPROCS(0))

	// Set-up: the offline reference once, then the daemon several times
	// (keeping the last). setup_s is the reference time plus the median
	// daemon set-up.
	runtime.GC()
	t0 := time.Now()
	prep, err := prepare(*workload, gen)
	refS := time.Since(t0).Seconds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lwmbench: set-up:", err)
		return 1
	}
	var b *bench
	var serveS []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			if err := b.d.close(); err != nil {
				fmt.Fprintln(os.Stderr, "lwmbench: closing daemon:", err)
				return 1
			}
		}
		runtime.GC()
		t0 := time.Now()
		b, err = prep.serve(tmp)
		serveS = append(serveS, time.Since(t0).Seconds())
		if err != nil {
			fmt.Fprintln(os.Stderr, "lwmbench: set-up:", err)
			return 1
		}
	}
	defer func() {
		if err := b.d.close(); err != nil {
			fmt.Fprintln(os.Stderr, "lwmbench: closing daemon:", err)
		}
	}()
	setupS := refS + median(serveS)
	fmt.Printf("set-up  %.3f s = reference %.3f s + median daemon set-up of [%s] s\n", setupS, refS, joinFloats(serveS, "%.3f"))

	goldenPath := filepath.Join(goldenDir, *workload+".json")
	if *writeGolden {
		if err := writeGoldenFile(goldenPath, *seed, gen.digest, prep.answers); err != nil {
			fmt.Fprintln(os.Stderr, "lwmbench:", err)
			return 1
		}
		fmt.Println("wrote", goldenPath)
		return 0
	}
	if *seed == defaultSeed {
		if err := checkGolden(goldenPath, gen.digest, prep.answers); err != nil {
			fmt.Fprintln(os.Stderr, "lwmbench: golden digests:", err)
			return 1
		}
		fmt.Printf("golden  %d reference digests match %s\n", len(prep.answers), goldenPath)
	}

	dur := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		dur /= 2
	}
	m := measure(b, dur, 0)
	m.setupS = setupS
	m.print(b)

	res := result{
		Correct:   m.failed == 0,
		Attempted: len(m.load.samples),
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	if *trace == 0 {
		res.Metrics = m.endToEnd()
	} else {
		tl := &tracedRun{before: snapshot(b.d)}
		tl.load = runLoad(b.d, b.reqs, b.clients, dur, m.load.passes+1, true)
		tl.after = snapshot(b.d)
		failed, errs := tl.load.verify(b.reqs)
		printFailures(errs)
		res.Attempted += len(tl.load.samples)
		res.Failed += failed
		res.Correct = res.Correct && failed == 0
		tr := newTracer()
		if err := b.replay(tr); err != nil {
			fmt.Fprintln(os.Stderr, "lwmbench: layer replay:", err)
			res.Correct = false
			res.Failed++
		}
		res.Metrics = perLayer(b, m, tl, tr)
		dump := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed))
		if err := tr.write(dump); err != nil {
			fmt.Fprintln(os.Stderr, "lwmbench: writing spans:", err)
		} else {
			fmt.Println("spans  ", dump)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lwmbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// counters is a snapshot of the program's exact counters.
type counters struct {
	eng                      engine.Counters
	oracleHits, oracleMisses uint64
	store                    store.Counters
}

func snapshot(d *daemon) counters {
	c := counters{eng: engine.Stats(), store: d.store.Counters()}
	c.oracleHits, c.oracleMisses = cdfg.OracleStats()
	return c
}

// measurement is one untraced closed-loop run and its resource deltas.
type measurement struct {
	load          *loadResult
	failed        int
	cpu           time.Duration
	alloc         uint64
	rssMB         float64
	before, after counters
	setupS        float64
}

func measure(b *bench, dur time.Duration, passBase int) *measurement {
	// Start from a collected heap returned to the OS, so the memory peak
	// is the load's, not set-up's leftovers.
	debug.FreeOSMemory()
	m := &measurement{before: snapshot(b.d)}
	rss := sampleRSS(5*time.Millisecond, time.Second)
	cpu0, alloc0 := cpuTime(), totalAlloc()
	m.load = runLoad(b.d, b.reqs, b.clients, dur, passBase, false)
	m.cpu, m.alloc = cpuTime()-cpu0, totalAlloc()-alloc0
	m.rssMB = rss.peakMB()
	m.after = snapshot(b.d)
	var errs map[string]error
	m.failed, errs = m.load.verify(b.reqs)
	printFailures(errs)
	return m
}

func printFailures(errs map[string]error) {
	names := make([]string, 0, len(errs))
	for n := range errs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "lwmbench: FAILED %s: %v\n", n, errs[n])
	}
}

func (m *measurement) latencies() []float64 {
	out := make([]float64, len(m.load.samples))
	for i, s := range m.load.samples {
		out[i] = ms(s.lat)
	}
	return out
}

// endToEnd are the metrics a user of the service sees.
func (m *measurement) endToEnd() map[string]metric {
	n := float64(len(m.load.samples))
	ok := n - float64(m.failed)
	lat := m.latencies()
	return map[string]metric{
		"setup_s":         {m.setupS, "s"},
		"throughput_rps":  {ok / m.load.wall.Seconds(), "req/s"},
		"p50_ms":          {quantile(lat, 0.5), "ms"},
		"p90_ms":          {quantile(lat, tailQuantile(len(lat))), "ms"},
		"cpu_ms_per_op":   {ms(m.cpu) / n, "ms"},
		"alloc_mb_per_op": {float64(m.alloc) / 1e6 / n, "MB"},
		"max_rss_mb":      {m.rssMB, "MB"},
	}
}

var endToEndOrder = []string{"setup_s", "throughput_rps", "p50_ms", "p90_ms", "cpu_ms_per_op", "alloc_mb_per_op", "max_rss_mb"}

func (m *measurement) print(b *bench) {
	e2e := m.endToEnd()
	n := len(m.load.samples)
	fmt.Printf("load    %d clients, %d passes of %d requests, %d samples in %.2f s, tail percentile p%.0f\n",
		b.clients, m.load.passes, len(b.reqs), n, m.load.wall.Seconds(), 100*tailQuantile(n))
	var head, units, row []string
	for _, k := range endToEndOrder {
		w := max(len(k), 9)
		head = append(head, fmt.Sprintf("%-*s", w, k))
		units = append(units, fmt.Sprintf("%-*s", w, e2e[k].Unit))
		row = append(row, fmt.Sprintf("%-*.4g", w, e2e[k].Value))
	}
	head = append(head, "failed_frac")
	units = append(units, "ratio")
	row = append(row, fmt.Sprintf("%.4g (%d/%d)", ratio(float64(m.failed), float64(n)), m.failed, n))
	fmt.Printf("%-9s %s\n%-9s %s\n%-9s %s\n", "workload", strings.Join(head, " "), "unit", strings.Join(units, " "), b.name, strings.Join(row, " "))
	m.printSlowest(b, 5)
	m.printCounters(b)
}

// printSlowest prints the n requests with the highest median latency.
func (m *measurement) printSlowest(b *bench, n int) {
	byReq := map[int][]float64{}
	for _, s := range m.load.samples {
		byReq[s.req] = append(byReq[s.req], ms(s.lat))
	}
	type row struct {
		name string
		med  float64
	}
	var rows []row
	for i, l := range byReq {
		rows = append(rows, row{b.reqs[i].name, median(l)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].med > rows[j].med })
	var parts []string
	for _, r := range rows[:min(n, len(rows))] {
		parts = append(parts, fmt.Sprintf("%s %.4g ms", r.name, r.med))
	}
	fmt.Printf("slowest %s\n", strings.Join(parts, ", "))
}

// printCounters prints the program's exact counters as per-pass deltas.
// A pass is one walk of the fixed request list, so a count that repeats
// exactly across runs of one seed reads the same here every run.
func (m *measurement) printCounters(b *bench) {
	p := float64(m.load.passes)
	a, z := m.before, m.after
	per := func(x, y uint64) float64 { return float64(y-x) / p }
	rootsPerPass := 0
	for _, r := range b.reqs {
		rootsPerPass += r.roots
	}
	oh, om := per(a.oracleHits, z.oracleHits), per(a.oracleMisses, z.oracleMisses)
	sh, sm := per(a.store.Hits, z.store.Hits), per(a.store.Misses, z.store.Misses)
	sc, sr := per(a.eng.SpecCommits, z.eng.SpecCommits), per(a.eng.SpecRepairs, z.eng.SpecRepairs)
	fmt.Printf("counters per pass (deltas over %d passes):\n", m.load.passes)
	fmt.Printf("  engine   pool_runs %.4g  pool_jobs %.4g  spec_commits %.4g  spec_repairs %.4g  spec_reuse %.3f (%.4g/%.4g)  seq_degrades %.4g\n",
		per(a.eng.PoolRuns, z.eng.PoolRuns), per(a.eng.PoolJobs, z.eng.PoolJobs), sc, sr, ratio(sc, sc+sr), sc, sc+sr,
		per(a.eng.SeqDegrades, z.eng.SeqDegrades))
	fmt.Printf("  oracle   hits %.4g  misses %.4g  hit_rate %.3f (%.4g/%.4g)\n", oh, om, ratio(oh, oh+om), oh, oh+om)
	fmt.Printf("  store    hits %.4g  misses %.4g  hit_rate %.3f (%.4g/%.4g)  puts %.4g  evictions %.4g  compactions %.4g  entries %d\n",
		sh, sm, ratio(sh, sh+sm), sh, sh+sm, per(a.store.Puts, z.store.Puts), per(a.store.Evictions, z.store.Evictions),
		per(a.store.Compactions, z.store.Compactions), z.store.Entries)
	fmt.Printf("  detect   roots_tried %d per pass (from the checked answers)\n", rootsPerPass)
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// goldenFile is the checked-in reference for the default seed.
type goldenFile struct {
	Seed    int64             `json:"seed"`
	Inputs  string            `json:"inputs"`
	Answers map[string]string `json:"answers"`
}

func writeGoldenFile(path string, seed int64, inputs string, answers map[string]string) error {
	b, err := json.MarshalIndent(goldenFile{Seed: seed, Inputs: inputs, Answers: answers}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func checkGolden(path, inputs string, answers map[string]string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if g.Inputs != inputs {
		return fmt.Errorf("generated inputs %s, golden %s", inputs, g.Inputs)
	}
	var bad []string
	for k, want := range g.Answers {
		if answers[k] != want {
			bad = append(bad, k)
		}
	}
	for k := range answers {
		if _, ok := g.Answers[k]; !ok {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("%d answers differ from %s: %s", len(bad), path, strings.Join(bad, ", "))
	}
	return nil
}
