package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/domain"
	"localwm/internal/engine"
	"localwm/internal/family"
	"localwm/internal/gcolor"
	"localwm/internal/order"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/internal/store"
	"localwm/lwmapi"
)

// The traced run records spans from the benchmark's own code: one per
// HTTP request of a traced load (with the daemon's X-Lwm-Server-Timing
// stages as children), and one per call into a layer's public function
// while the workload's requests are replayed in-process. Spans stay in
// memory and are written out when the run ends.

// span is one timed interval. Spans of one request share Trace.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// counts are exact per-layer counts (numerators and bases of ratios).
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counts: map[string]float64{}} }

func (t *tracer) add(trace string, parent int, name string, start time.Time, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := int64(start.Sub(t.epoch))
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Trace: trace, Name: name, Start: s, End: s + int64(d)})
	return len(t.spans) - 1
}

// run times f as a span named name; f receives the span's ID, so the
// layer calls it makes can nest under it.
func (t *tracer) run(trace string, parent int, name string, f func(id int) error) error {
	id := t.add(trace, parent, name, time.Now(), 0)
	err := f(id)
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
	return err
}

func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// addLoad records each traced request as a span with the daemon's stage
// timings as children. Only durations cross the wire, so the stages are
// placed from the client span's start: queue wait first, then run.
func (t *tracer) addLoad(b *bench, l *loadResult) {
	for _, s := range l.samples {
		id := t.add(s.traceID, -1, "http."+b.reqs[s.req].kind, s.start, s.lat)
		t.add(s.traceID, id, "server.queue_wait", s.start, s.queueWait)
		t.add(s.traceID, id, "server.run", s.start.Add(s.queueWait), s.run)
	}
}

// layerStats are one span name's calls.
type layerStats struct {
	calls       int
	durs        []float64 // ms
	total, self float64   // ms
}

// stats aggregates spans by name. A span's self time is its duration
// minus the part of it its children cover.
func (t *tracer) stats() map[string]*layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStats{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStats{}
			out[s.Name] = st
		}
		d := float64(s.End-s.Start) / 1e6
		st.calls++
		st.durs = append(st.durs, d)
		st.total += d
		st.self += d - covered(s, children[s.ID])/1e6
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's, in ns.
func covered(parent span, kids []span) float64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end int64
	end = -1 << 62
	for _, x := range iv {
		if x[0] > end {
			sum += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			sum += x[1] - end
			end = x[1]
		}
	}
	return float64(sum)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// perLayerMetrics are the traced run's metrics with their units, in
// print order.
var perLayerMetrics = []struct{ name, unit string }{
	{"server.queue_wait_ms", "ms"}, {"server.run_ms", "ms"}, {"server.outside_ms", "ms"},
	{"lwmapi.decode_ms", "ms"}, {"lwmapi.encode_ms", "ms"}, {"lwmapi.req_kb", "kB"}, {"lwmapi.resp_kb", "kB"},
	{"store.put_ms", "ms"}, {"store.get_ms", "ms"}, {"store.hit_rate", "ratio"}, {"store.evictions", "count"},
	{"family.parse_design_ms", "ms"}, {"family.parse_solution_ms", "ms"}, {"family.embed_ms", "ms"}, {"family.detect_ms", "ms"},
	{"engine.embed_ms", "ms"}, {"engine.embed_seq_ms", "ms"},
	{"engine.spec_commits", "count"}, {"engine.spec_repairs", "count"}, {"engine.spec_reuse", "ratio"},
	{"schedwm.prepare_ms", "ms"}, {"schedwm.commit_ms", "ms"}, {"schedwm.detect_ms", "ms"}, {"schedwm.tries_per_wm", "count"},
	{"domain.select_ms", "ms"}, {"domain.roots_tried", "count"},
	{"order.order_ms", "ms"}, {"order.calls", "count"},
	{"cdfg.parse_ms", "ms"}, {"cdfg.write_ms", "ms"}, {"cdfg.topo_ms", "ms"}, {"cdfg.critical_path_ms", "ms"}, {"cdfg.oracle_hit_rate", "ratio"},
	{"sched.windows_ms", "ms"},
	{"gcolor.embed_ms", "ms"}, {"gcolor.detect_ms", "ms"},
	{"bench.layer_coverage", "ratio"}, {"bench.trace_overhead", "ratio"},
}

// tracedRun is the traced load with the store counters around it.
type tracedRun struct {
	load          *loadResult
	before, after counters
}

// perLayer computes the per-layer metrics and prints the layer table.
func perLayer(b *bench, m *measurement, tl *tracedRun, t *tracer) map[string]metric {
	t.addLoad(b, tl.load)
	st := t.stats()
	med := func(name string) float64 {
		if s := st[name]; s != nil {
			return median(s.durs)
		}
		return 0
	}
	v := map[string]float64{}
	var bases []string
	for _, pm := range perLayerMetrics {
		if strings.HasSuffix(pm.name, "_ms") {
			v[pm.name] = med(strings.TrimSuffix(pm.name, "_ms"))
		}
	}
	var outside, reqKB, respKB []float64
	for _, s := range tl.load.samples {
		outside = append(outside, ms(s.lat-s.queueWait-s.run))
		reqKB = append(reqKB, float64(s.reqBytes)/1e3)
		respKB = append(respKB, float64(s.respBytes)/1e3)
	}
	v["server.outside_ms"] = median(outside)
	v["lwmapi.req_kb"], v["lwmapi.resp_kb"] = median(reqKB), median(respKB)

	a, z := tl.before.store, tl.after.store
	hits, lookups := float64(z.Hits-a.Hits), float64(z.Hits-a.Hits+z.Misses-a.Misses)
	v["store.hit_rate"] = ratio(hits, lookups)
	bases = append(bases, fmt.Sprintf("store.hit_rate = %g hits / %g lookups in the traced load", hits, lookups))
	v["store.evictions"] = float64(z.Evictions-a.Evictions) / float64(tl.load.passes)
	bases = append(bases, fmt.Sprintf("store.evictions = %d evictions / %d passes of the traced load", z.Evictions-a.Evictions, tl.load.passes))

	c := t.counts
	v["engine.spec_commits"], v["engine.spec_repairs"] = c["spec_commits"], c["spec_repairs"]
	v["engine.spec_reuse"] = ratio(c["spec_commits"], c["spec_commits"]+c["spec_repairs"])
	bases = append(bases, fmt.Sprintf("engine.spec_reuse = %g commits / %g (commits+repairs) over one replay pass", c["spec_commits"], c["spec_commits"]+c["spec_repairs"]))
	v["schedwm.tries_per_wm"] = ratio(c["tries"], c["watermarks"])
	bases = append(bases, fmt.Sprintf("schedwm.tries_per_wm = %g tries / %g watermarks", c["tries"], c["watermarks"]))
	v["domain.roots_tried"] = ratio(c["roots"], c["detect_requests"])
	v["order.calls"] = ratio(c["order_calls"], c["detect_requests"])
	bases = append(bases, fmt.Sprintf("domain.roots_tried, order.calls = %g roots, %g order calls / %g detect requests", c["roots"], c["order_calls"], c["detect_requests"]))
	v["cdfg.oracle_hit_rate"] = ratio(c["oracle_hits"], c["oracle_hits"]+c["oracle_misses"])
	bases = append(bases, fmt.Sprintf("cdfg.oracle_hit_rate = %g hits / %g queries during the replayed family calls", c["oracle_hits"], c["oracle_hits"]+c["oracle_misses"]))

	// Coverage: the replayed layer calls of each request (the children of
	// its "request" span, which are disjoint) against the request's
	// median client latency in the traced load.
	lat := map[string][]float64{}
	for _, s := range tl.load.samples {
		name := b.reqs[s.req].name
		lat[name] = append(lat[name], ms(s.lat))
	}
	var layerMS, wallMS float64
	t.mu.Lock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.Name != "request" {
			continue
		}
		l, ok := lat[strings.TrimPrefix(s.Trace, "replay:")]
		if !ok {
			continue
		}
		layerMS += covered(s, kids[s.ID]) / 1e6
		wallMS += median(l)
	}
	t.mu.Unlock()
	v["bench.layer_coverage"] = ratio(layerMS, wallMS)
	bases = append(bases, fmt.Sprintf("bench.layer_coverage = %.4g ms of replayed layer calls / %.4g ms of client latency, summed over requests", layerMS, wallMS))
	untraced := float64(len(m.load.samples)) / m.load.wall.Seconds()
	traced := float64(len(tl.load.samples)) / tl.load.wall.Seconds()
	v["bench.trace_overhead"] = ratio(untraced, traced)
	bases = append(bases, fmt.Sprintf("bench.trace_overhead = %.4g req/s untraced / %.4g req/s traced", untraced, traced))

	printLayers(st)
	if b.name == "audit" {
		printDecomposition(st, c)
	}
	fmt.Println("bases:")
	for _, s := range bases {
		fmt.Println("  " + s)
	}
	out := map[string]metric{}
	fmt.Println("per-layer metrics:")
	for _, pm := range perLayerMetrics {
		out[pm.name] = metric{v[pm.name], pm.unit}
		fmt.Printf("  %-26s %12.4g %s\n", pm.name, v[pm.name], pm.unit)
	}
	return out
}

func printLayers(st map[string]*layerStats) {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("layer spans:\n  %-24s %7s %11s %12s %12s\n", "span", "calls", "median_ms", "total_ms", "self_ms")
	for _, n := range names {
		s := st[n]
		fmt.Printf("  %-24s %7d %11.4g %12.4g %12.4g\n", n, s.calls, median(s.durs), s.total, s.self)
	}
}

// printDecomposition checks that a detect's scan adds up: windows per
// record plus select per candidate root against the family call.
func printDecomposition(st map[string]*layerStats, c map[string]float64) {
	get := func(n string) *layerStats {
		if s := st[n]; s != nil {
			return s
		}
		return &layerStats{}
	}
	det, sel, win, ord := get("family.detect"), get("domain.select"), get("sched.windows"), get("order.order")
	fmt.Printf("decomposition (audit): family.detect %.4g ms total over %d requests; sched.windows %.4g ms over %d records + domain.select %.4g ms over %d roots = %.4g ms (%.3f of family.detect); order.order inside select %.4g ms (%.3f of select)\n",
		det.total, det.calls, win.total, win.calls, sel.total, sel.calls, win.total+sel.total,
		ratio(win.total+sel.total, det.total), ord.total, ratio(ord.total, sel.total))
	fmt.Printf("decomposition (medians): domain.select_ms × roots + sched.windows_ms × records = %.4g × %.4g + %.4g × %.4g = %.4g ms per request vs family.detect_ms %.4g\n",
		median(sel.durs), ratio(c["roots"], c["detect_requests"]), median(win.durs), ratio(float64(win.calls), float64(det.calls)),
		median(sel.durs)*ratio(c["roots"], c["detect_requests"])+median(win.durs)*ratio(float64(win.calls), float64(det.calls)), median(det.durs))
}

// ---- replays ----

// encodeIndented encodes v exactly as the daemon writes answers.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// timed runs f as a span and returns its error.
func timed(t *tracer, trace string, parent int, name string, f func() error) error {
	return t.run(trace, parent, name, func(int) error { return f() })
}

// oracleDelta counts the PathOracle hits and misses of f.
func oracleDelta(t *tracer, f func() error) error {
	h0, m0 := cdfg.OracleStats()
	err := f()
	h1, m1 := cdfg.OracleStats()
	t.count("oracle_hits", float64(h1-h0))
	t.count("oracle_misses", float64(m1-m0))
	return err
}

// domainStream is the walk stream schedwm derives for the idx-th
// watermark's try-th placement (schedwm.domainStream, unexported).
func domainStream(sig prng.Signature, idx, try int) (*prng.Bitstream, error) {
	key := append(append(prng.Signature{}, sig...), []byte(fmt.Sprintf("/sched-domain/%d/%d", idx, try))...)
	return prng.NewBitstream(key)
}

func replayAudit(t *tracer, d *daemon, cases []*auditCase, refs []string) error {
	proto := lookup(lwmapi.FamilySched)
	reg, err := store.Open(store.Config{})
	if err != nil {
		return err
	}
	for i, c := range cases {
		tr := "replay:detect:" + c.name
		body := mustJSON(lwmapi.DetectRequest{Suspects: []lwmapi.Suspect{{DesignRef: refs[i], Schedule: c.schedule}}, Records: c.records})
		var req lwmapi.DetectRequest
		var sd *store.Design
		var sol family.Solution
		var resp *lwmapi.DetectResponse
		err := t.run(tr, -1, "request", func(id int) error {
			if err := timed(t, tr, id, "lwmapi.decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
				return err
			}
			if err := timed(t, tr, id, "store.get", func() error {
				var ok bool
				if sd, ok = d.store.Get(req.Suspects[0].DesignRef); !ok {
					return fmt.Errorf("ref %s not resident", refs[i])
				}
				return nil
			}); err != nil {
				return err
			}
			if err := timed(t, tr, id, "family.parse_solution", func() (err error) {
				sol, err = proto.ParseSolution(sd.Artifact, req.Suspects[0].Schedule)
				return err
			}); err != nil {
				return err
			}
			if err := timed(t, tr, id, "family.detect", func() error {
				return oracleDelta(t, func() (err error) {
					resp, err = proto.Detect(context.Background(), []family.Suspect{{Design: sd.Artifact, Solution: sol, Shared: true}}, req.Records, 1)
					return err
				})
			}); err != nil {
				return err
			}
			return timed(t, tr, id, "lwmapi.encode", func() error { _, err := encodeIndented(resp); return err })
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if digestJSON(resp) != digestJSON(c.expect) {
			return fmt.Errorf("%s: replayed detect differs from the reference", c.name)
		}
		t.count("detect_requests", 1)
		g, _ := family.CDFG(sd.Artifact)
		if err := t.run(tr, -1, "decompose", func(id int) error {
			return decomposeDetect(t, tr, id, g, sol.(*sched.Schedule), req.Records)
		}); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if err := timed(t, tr, -1, "store.put", func() error { _, _, err := reg.Put(c.marked); return err }); err != nil {
			return err
		}
	}
	return nil
}

// decomposeDetect replays what schedwm.Detect does for each record as
// separate layer calls: the scan itself, the lifetime windows, and at
// every candidate root that passes the fingerprint test the domain
// selection, followed by the canonical ordering of the domain it built
// (which Select also runs inside).
func decomposeDetect(t *tracer, tr string, parent int, g *cdfg.Graph, s *sched.Schedule, recs []lwmapi.Record) error {
	for _, r := range recs {
		rec := r.Sched()
		var det *schedwm.Detection
		if err := timed(t, tr, parent, "schedwm.detect", func() (err error) {
			det, err = schedwm.Detect(g, s, rec)
			return err
		}); err != nil {
			return err
		}
		t.count("roots", float64(det.RootsTried))
		budget := max(s.Budget, s.Makespan())
		if err := timed(t, tr, parent, "sched.windows", func() error {
			_, err := sched.ComputeWindows(g, budget, false)
			return err
		}); err != nil {
			return err
		}
		for _, root := range g.Computational() {
			eligible := false
			for _, u := range g.DataIn(root) {
				if g.Node(u).Op.IsComputational() {
					eligible = true
					break
				}
			}
			if !eligible || (rec.RootFP != "" && domain.RootFingerprint(g, root) != rec.RootFP) {
				continue
			}
			ds, err := domainStream(rec.Signature, rec.Index, rec.Try)
			if err != nil {
				return err
			}
			var dom *domain.Domain
			var selErr error
			_ = timed(t, tr, parent, "domain.select", func() error {
				dom, selErr = domain.Select(g, ds, root, rec.DomainCfg)
				return nil
			})
			if selErr != nil {
				continue // the root cannot host the domain, as in the scan
			}
			if err := timed(t, tr, parent, "order.order", func() error {
				_, err := order.Order(g, root, cdfg.SortedIDs(dom.To), 0)
				return err
			}); err != nil {
				return err
			}
			t.count("order_calls", 1)
		}
	}
	return nil
}

// replayMark replays every second pair of the mark pass (the pairs are
// size-stratified, so half of them still span 30..800 ops), which keeps
// a traced run well inside its time limit on a loaded host.
func replayMark(t *tracer, cases []*markCase) error {
	proto := lookup(lwmapi.FamilySched)
	workers := runtime.NumCPU() // the daemon's default engine workers
	for i, c := range cases {
		if i%2 == 1 {
			continue
		}
		tr := "replay:embed:" + c.pair.Name
		body := mustJSON(lwmapi.EmbedRequest{Design: c.pair.Text, Signature: c.pair.Signature, MarkParams: c.params})
		var req lwmapi.EmbedRequest
		var d family.Design
		var resp *lwmapi.EmbedResponse
		err := t.run(tr, -1, "request", func(id int) error {
			if err := timed(t, tr, id, "lwmapi.decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
				return err
			}
			if err := timed(t, tr, id, "family.parse_design", func() (err error) {
				d, err = proto.ParseDesign(req.Design)
				return err
			}); err != nil {
				return err
			}
			if err := timed(t, tr, id, "family.embed", func() error {
				return oracleDelta(t, func() (err error) {
					resp, err = proto.Embed(context.Background(), d, req.Signature, req.MarkParams, workers)
					return err
				})
			}); err != nil {
				return err
			}
			return timed(t, tr, id, "lwmapi.encode", func() error { _, err := encodeIndented(resp); return err })
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.pair.Name, err)
		}
		if digestJSON(resp) != digestJSON(c.expect) {
			return fmt.Errorf("%s: replayed embed differs from the reference", c.pair.Name)
		}
		if err := t.run(tr, -1, "decompose", func(id int) error { return decomposeEmbed(t, tr, id, c, workers) }); err != nil {
			return fmt.Errorf("%s: %w", c.pair.Name, err)
		}
	}
	return nil
}

// decomposeEmbed replays an embed's layers: parse, critical path,
// Prepare, EmbedMany at the daemon's default workers and sequentially,
// the successful domain selection and ordering of each watermark,
// committing its edges, the cycle check, and the write.
func decomposeEmbed(t *tracer, tr string, parent int, c *markCase, workers int) error {
	var g *cdfg.Graph
	if err := timed(t, tr, parent, "cdfg.parse", func() (err error) {
		g, err = cdfg.Parse(strings.NewReader(c.pair.Text))
		return err
	}); err != nil {
		return err
	}
	if err := timed(t, tr, parent, "cdfg.critical_path", func() error { _, err := g.CriticalPath(); return err }); err != nil {
		return err
	}
	cfg, err := family.SchedConfig(g, c.params, workers)
	if err != nil {
		return err
	}
	if err := timed(t, tr, parent, "schedwm.prepare", func() error { _, err := schedwm.Prepare(g, cfg); return err }); err != nil {
		return err
	}
	sig := prng.Signature(c.pair.Signature)
	e0 := engine.Stats()
	if err := timed(t, tr, parent, "engine.embed", func() error {
		_, err := engine.EmbedMany(g.Clone(), sig, cfg, c.params.N, workers)
		return err
	}); err != nil {
		return err
	}
	e1 := engine.Stats()
	t.count("spec_commits", float64(e1.SpecCommits-e0.SpecCommits))
	t.count("spec_repairs", float64(e1.SpecRepairs-e0.SpecRepairs))
	var wms []*schedwm.Watermark
	if err := timed(t, tr, parent, "engine.embed_seq", func() (err error) {
		wms, err = engine.EmbedMany(g.Clone(), sig, cfg, c.params.N, 1)
		return err
	}); err != nil {
		return err
	}
	marked := g.Clone()
	for _, wm := range wms {
		t.count("tries", float64(wm.Tries))
		t.count("watermarks", 1)
		ds, err := domainStream(sig, wm.Index, wm.Tries)
		if err != nil {
			return err
		}
		if err := timed(t, tr, parent, "domain.select", func() error {
			_, err := domain.Select(g, ds, wm.Root, wm.Config.Domain)
			return err
		}); err != nil {
			return err
		}
		if err := timed(t, tr, parent, "order.order", func() error {
			_, err := order.Order(g, wm.Root, cdfg.SortedIDs(wm.Domain.To), 0)
			return err
		}); err != nil {
			return err
		}
		if err := timed(t, tr, parent, "schedwm.commit", func() error { return schedwm.CommitEdges(marked, wm) }); err != nil {
			return err
		}
	}
	if err := timed(t, tr, parent, "cdfg.topo", func() error { _, err := marked.TopoOrder(); return err }); err != nil {
		return err
	}
	var buf bytes.Buffer
	return timed(t, tr, parent, "cdfg.write", func() error { return cdfg.Write(&buf, marked) })
}

// replayLight replays the light pass: each coloring instance's embed and
// detect, the puts (fresh designs from the same templates, as puts[slot]
// names the template a pass's put slot instantiates), and the gets of
// the hot designs the pass reads.
func replayLight(t *tracer, d *daemon, cases []*lightCase, hot map[int]hotDesign, puts map[int]string) error {
	proto := lookup(lwmapi.FamilyGcolor)
	workers := runtime.NumCPU()
	for _, c := range cases {
		tr := "replay:gembed:" + c.inst.Name
		body := mustJSON(lwmapi.EmbedRequest{Family: lwmapi.FamilyGcolor, Design: c.inst.Text, Signature: c.inst.Signature, MarkParams: gcolorParams()})
		var req lwmapi.EmbedRequest
		var dsg family.Design
		var emb *lwmapi.EmbedResponse
		err := t.run(tr, -1, "request", func(id int) error {
			if err := timed(t, tr, id, "lwmapi.decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
				return err
			}
			if err := timed(t, tr, id, "family.parse_design", func() (err error) {
				dsg, err = proto.ParseDesign(req.Design)
				return err
			}); err != nil {
				return err
			}
			if err := timed(t, tr, id, "family.embed", func() (err error) {
				emb, err = proto.Embed(context.Background(), dsg, req.Signature, req.MarkParams, workers)
				return err
			}); err != nil {
				return err
			}
			return timed(t, tr, id, "lwmapi.encode", func() error { _, err := encodeIndented(emb); return err })
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.inst.Name, err)
		}
		g, err := gcolor.ParseGraph(strings.NewReader(c.inst.Text))
		if err != nil {
			return err
		}
		if err := timed(t, tr, -1, "gcolor.embed", func() error {
			_, err := gcolor.Embed(g, prng.Signature(c.inst.Signature), gcolor.Config{Tau: req.Tau, K: req.K})
			return err
		}); err != nil {
			return err
		}

		tr = "replay:gdetect:" + c.inst.Name
		body = mustJSON(c.detectReq)
		var dreq lwmapi.DetectRequest
		var sol family.Solution
		var det *lwmapi.DetectResponse
		err = t.run(tr, -1, "request", func(id int) error {
			if err := timed(t, tr, id, "lwmapi.decode", func() error { return json.Unmarshal(body, &dreq) }); err != nil {
				return err
			}
			if err := timed(t, tr, id, "family.parse_design", func() (err error) {
				dsg, err = proto.ParseDesign(dreq.Suspects[0].Design)
				return err
			}); err != nil {
				return err
			}
			if err := timed(t, tr, id, "family.parse_solution", func() (err error) {
				sol, err = proto.ParseSolution(dsg, dreq.Suspects[0].Schedule)
				return err
			}); err != nil {
				return err
			}
			if err := timed(t, tr, id, "family.detect", func() (err error) {
				det, err = proto.Detect(context.Background(), []family.Suspect{{Design: dsg, Solution: sol}}, dreq.Records, workers)
				return err
			}); err != nil {
				return err
			}
			return timed(t, tr, id, "lwmapi.encode", func() error { _, err := encodeIndented(det); return err })
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.inst.Name, err)
		}
		mg, err := gcolor.ParseGraph(strings.NewReader(c.embed.MarkedDesign))
		if err != nil {
			return err
		}
		col, err := gcolor.ParseColoring(mg.N(), strings.NewReader(c.embed.MarkedSolution))
		if err != nil {
			return err
		}
		if err := timed(t, tr, -1, "gcolor.detect", func() error {
			_, err := gcolor.Detect(mg, col, c.embed.Records[0].Gcolor())
			return err
		}); err != nil {
			return err
		}
	}
	// Registry traffic: fresh puts into the live (full) registry, so each
	// appends to the WAL and evicts, and gets of the resident hot set.
	for _, slot := range sortedKeys(puts) {
		text := freshDesign(puts[slot], fmt.Sprintf("r%d_", slot))
		tr := fmt.Sprintf("replay:put:%d", slot)
		body := mustJSON(lwmapi.PutDesignRequest{Design: text})
		var req lwmapi.PutDesignRequest
		if err := t.run(tr, -1, "request", func(id int) error {
			if err := timed(t, tr, id, "lwmapi.decode", func() error { return json.Unmarshal(body, &req) }); err != nil {
				return err
			}
			var sd *store.Design
			if err := timed(t, tr, id, "store.put", func() (err error) {
				sd, _, err = d.store.Put(req.Design)
				return err
			}); err != nil {
				return err
			}
			return timed(t, tr, id, "lwmapi.encode", func() error {
				_, err := encodeIndented(lwmapi.PutDesignResponse{Ref: sd.Ref, Created: true, Bytes: len(sd.Text), Nodes: sd.Nodes()})
				return err
			})
		}); err != nil {
			return err
		}
		var g *cdfg.Graph
		if err := timed(t, tr, -1, "cdfg.parse", func() (err error) {
			g, err = cdfg.Parse(strings.NewReader(text))
			return err
		}); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := timed(t, tr, -1, "cdfg.write", func() error { return cdfg.Write(&buf, g) }); err != nil {
			return err
		}
	}
	for _, i := range sortedKeys(hot) {
		h := hot[i]
		tr := fmt.Sprintf("replay:get:%d", i)
		if err := t.run(tr, -1, "request", func(id int) error {
			var sd *store.Design
			if err := timed(t, tr, id, "store.get", func() error {
				var ok bool
				if sd, ok = d.store.Get(h.ref); !ok {
					return fmt.Errorf("hot ref %s not resident", h.ref)
				}
				return nil
			}); err != nil {
				return err
			}
			return timed(t, tr, id, "lwmapi.encode", func() error {
				_, err := encodeIndented(lwmapi.GetDesignResponse{Ref: sd.Ref, Design: sd.Text})
				return err
			})
		}); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
