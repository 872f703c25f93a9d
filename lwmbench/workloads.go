package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"

	"localwm/internal/cdfg"
	"localwm/internal/domain"
	"localwm/internal/family"
	"localwm/internal/sched"
	"localwm/internal/store"
	"localwm/lwmapi"
)

// A workload is set up in two steps. prepare computes the reference
// answers offline (sequential family calls on private parses) once per
// run; serve boots a daemon, registers what the workload needs, builds
// the request list and warms up, and runs several times per run.

// prepared is a workload's offline reference, ready to serve.
type prepared struct {
	// answers are the reference digests by request name; at the default
	// seed they must equal the checked-in golden digests.
	answers map[string]string
	serve   func(tmp string) (*bench, error)
}

// bench is one workload served by a live daemon.
type bench struct {
	name    string
	clients int
	reqs    []*request
	d       *daemon
	// replay re-runs the workload's layer calls in-process under the
	// tracer (traced runs only).
	replay func(t *tracer) error
}

// generated is a workload's seeded inputs.
type generated struct {
	audit  [][]auditDesign
	mark   [][]markPair
	light  lightInputs
	digest string
}

func generate(workload string, seed int64) (*generated, error) {
	g := &generated{}
	var parts []string
	switch workload {
	case "audit":
		g.audit = genAudit(seed)
		for _, band := range g.audit {
			for _, d := range band {
				parts = append(parts, d.Name, d.Text, d.Owner)
			}
		}
	case "mark":
		g.mark = genMark(seed)
		for _, band := range g.mark {
			for _, p := range band {
				parts = append(parts, p.Name, p.Text, p.Signature)
			}
		}
	case "light":
		g.light = genLight(seed)
		for _, c := range g.light.Gcolor {
			parts = append(parts, c.Name, c.Text, c.Signature)
		}
		parts = append(parts, g.light.Templates...)
		for _, s := range g.light.Order {
			parts = append(parts, fmt.Sprintf("%s/%d", s.Kind, s.I))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have audit, mark, light)", workload)
	}
	g.digest = inputDigest(parts...)
	return g, nil
}

func prepare(workload string, g *generated) (*prepared, error) {
	switch workload {
	case "audit":
		return prepareAudit(g.audit)
	case "mark":
		return prepareMark(g.mark)
	default:
		return prepareLight(g.light)
	}
}

// parallel runs f(0..n-1) on one goroutine per CPU and returns the
// first error.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int, n) // sized to n: every index is queued up front
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("lwmbench: encoding request: %v", err))
	}
	return b
}

// checkDigest decodes an answer into a fresh T and compares its digest.
func checkDigest[T any](want string) func(int, []byte) error {
	return func(_ int, answer []byte) error {
		var got T
		if err := json.Unmarshal(answer, &got); err != nil {
			return fmt.Errorf("decoding answer: %w", err)
		}
		if d := digestJSON(got); d != want {
			return fmt.Errorf("answer digest %.12s, reference %.12s", d, want)
		}
		return nil
	}
}

func constBody(b []byte) func(int) []byte { return func(int) []byte { return b } }

func lookup(name string) family.Protocol {
	p, err := family.Lookup(name)
	if err != nil {
		panic(err)
	}
	return p
}

// markOffline embeds sequentially (workers=1), the reference path.
func markOffline(proto family.Protocol, text, sig string, p lwmapi.MarkParams) (*lwmapi.EmbedResponse, error) {
	d, err := proto.ParseDesign(text)
	if err != nil {
		return nil, err
	}
	return proto.Embed(context.Background(), d, sig, p, 1)
}

// detectOffline runs family detection sequentially on a private parse.
func detectOffline(proto family.Protocol, design, solution string, recs []lwmapi.Record) (*lwmapi.DetectResponse, error) {
	d, err := proto.ParseDesign(design)
	if err != nil {
		return nil, err
	}
	sol, err := proto.ParseSolution(d, solution)
	if err != nil {
		return nil, err
	}
	return proto.Detect(context.Background(), []family.Suspect{{Design: d, Solution: sol}}, recs, 1)
}

// localRef is the registry ref of text, canonicalized without the daemon.
func localRef(fam, text string) string {
	canonical, err := store.CanonicalizeFamily(fam, text)
	if err != nil {
		return "uncanonicalizable: " + err.Error()
	}
	return store.RefOfFamily(fam, "", canonical)
}

// warm sends the first request of each kind once, untimed, and checks
// its answer.
func (b *bench) warm() error {
	seen := map[string]bool{}
	for _, r := range b.reqs {
		if seen[r.kind] {
			continue
		}
		seen[r.kind] = true
		pass := -1
		var body []byte
		if r.body != nil {
			body = r.body(pass)
		}
		status, out, _, err := b.d.call(r.method, r.path, body, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, out)
		}
		if err == nil {
			err = r.check(pass, out)
		}
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", r.name, err)
		}
	}
	return nil
}

// boot starts a daemon for a workload, runs fill on it and warms it up,
// closing the daemon if either fails.
func boot(tmp, name string, clients int, fill func(b *bench) error) (*bench, error) {
	d, err := bootDaemon(tmp)
	if err != nil {
		return nil, err
	}
	b := &bench{name: name, clients: clients, d: d}
	if err := fill(b); err != nil {
		d.close()
		return nil, err
	}
	if err := b.warm(); err != nil {
		d.close()
		return nil, err
	}
	return b, nil
}

func rootsTried(r *lwmapi.DetectResponse) int {
	n := 0
	for _, row := range r.Results {
		for _, o := range row {
			n += o.RootsTried
		}
	}
	return n
}

// ---- audit ----

// auditCase is one marked, scheduled suspect of the audit corpus with
// its detect request.
type auditCase struct {
	name     string
	marked   string // marked design text (what is registered)
	schedule string
	ownRecs  []lwmapi.Record // the owner's records, fixed after marking
	records  []lwmapi.Record // own records, then the negative controls
	expect   *lwmapi.DetectResponse
}

// auditNegatives is the number of negative-control records per request.
const auditNegatives = 4

// schedParams are the sched defaults with n watermarks.
func schedParams(n int) lwmapi.MarkParams {
	p := lwmapi.MarkParams{N: n}
	lookup(lwmapi.FamilySched).Normalize(&p)
	return p
}

// scheduleMarked list-schedules a marked design honoring its temporal
// edges: the schedule a thief would ship.
func scheduleMarked(marked string) (string, error) {
	d, err := lookup(lwmapi.FamilySched).ParseDesign(marked)
	if err != nil {
		return "", err
	}
	g, _ := family.CDFG(d)
	s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := sched.WriteSchedule(&sb, g, s); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// auditMarks is the number of watermarks each audit suspect carries.
const auditMarks = 4

// auditCases marks and schedules each band's suspect offline and
// computes every request's records and expected answer. A band's suspect is its first
// candidate whose offline embed places all auditMarks watermarks: some
// designs have no root with a large enough domain under the sched
// defaults for a given owner, and embedding then answers with fewer
// watermarks or an error. That answer is the program's correct one, but
// such a suspect is not an auditor's input, so the band takes its next
// candidate. Seeds whose first candidates all embed keep them.
func auditCases(in [][]auditDesign) ([]*auditCase, error) {
	proto := lookup(lwmapi.FamilySched)
	cases := make([]*auditCase, len(in))
	// Mark (n=4, sched defaults) and schedule every design offline.
	err := parallel(len(in), func(i int) error {
		var last error
		for _, cand := range in[i] {
			resp, err := markOffline(proto, cand.Text, cand.Owner, schedParams(auditMarks))
			if err == nil && resp.Watermarks != auditMarks {
				err = fmt.Errorf("embedded %d of %d watermarks", resp.Watermarks, auditMarks)
			}
			if err != nil {
				last = fmt.Errorf("marking %s: %w", cand.Name, err)
				continue
			}
			sc, err := scheduleMarked(resp.MarkedDesign)
			if err != nil {
				return fmt.Errorf("scheduling %s: %w", cand.Name, err)
			}
			cases[i] = &auditCase{name: cand.Name, marked: resp.MarkedDesign, schedule: sc, ownRecs: resp.Records}
			return nil
		}
		return fmt.Errorf("no candidate of band %d hosts %d watermarks: %w", i, auditMarks, last)
	})
	if err != nil {
		return nil, err
	}
	// The expected answer: the own records' outcomes, then those of four
	// negative controls (see matchedControls). Detection is per record, so
	// outcomes concatenate.
	err = parallel(len(cases), func(i int) error {
		c := cases[i]
		own, err := detectOffline(proto, c.marked, c.schedule, c.ownRecs)
		if err != nil {
			return fmt.Errorf("reference detect %s: %w", c.name, err)
		}
		if own.Detected != len(c.ownRecs) {
			return fmt.Errorf("audit %s: reference detector found %d of %d own records", c.name, own.Detected, len(c.ownRecs))
		}
		var pool []lwmapi.Record
		for k := 1; k < len(cases); k++ {
			pool = append(pool, cases[(i+k)%len(cases)].ownRecs...)
		}
		negs, outcomes, err := matchedControls(proto, c, pool, rootsTried(own))
		if err != nil {
			return err
		}
		c.records = append(append([]lwmapi.Record{}, c.ownRecs...), negs...)
		c.expect = &lwmapi.DetectResponse{
			Results:  [][]lwmapi.DetectOutcome{append(own.Results[0], outcomes...)},
			Detected: own.Detected,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cases, nil
}

func prepareAudit(in [][]auditDesign) (*prepared, error) {
	cases, err := auditCases(in)
	if err != nil {
		return nil, err
	}
	p := &prepared{answers: map[string]string{}}
	for _, c := range cases {
		p.answers["embed:"+c.name] = digestJSON(map[string]any{"marked": c.marked, "records": c.ownRecs})
		p.answers["detect:"+c.name] = digestJSON(c.expect)
	}
	p.serve = func(tmp string) (*bench, error) {
		return boot(tmp, "audit", 2, func(b *bench) error {
			refs := make([]string, len(cases))
			for i, c := range cases {
				ref, err := b.d.put("", c.marked)
				if err != nil {
					return fmt.Errorf("registering %s: %w", c.name, err)
				}
				if want := localRef("", c.marked); ref != want {
					return fmt.Errorf("registering %s: ref %s, local %s", c.name, ref, want)
				}
				refs[i] = ref
				body := mustJSON(lwmapi.DetectRequest{
					Suspects: []lwmapi.Suspect{{DesignRef: ref, Schedule: c.schedule}},
					Records:  c.records,
				})
				b.reqs = append(b.reqs, &request{
					name: "detect:" + c.name, kind: "detect", method: http.MethodPost, path: "/v1/detect",
					body: constBody(body), check: checkDigest[lwmapi.DetectResponse](p.answers["detect:"+c.name]),
					roots: rootsTried(c.expect),
				})
			}
			b.replay = func(t *tracer) error { return replayAudit(t, b.d, cases, refs) }
			return nil
		})
	}
	return p, nil
}

// matchedControls picks auditNegatives records from pool (other owners'
// records) that the reference detector finds absent from c's suspect.
// They are chosen so the request makes the detector try about as many
// candidate roots as its records would if their roots were drawn
// uniformly from the suspect's candidates: the controls top up what the
// own records' ownRoots leave of that target. A pass's detection work
// then depends on the designs, not on which roots the owners' signatures
// happened to pick. Each slot takes, among the pool records not yet
// tried, the one whose root count is nearest the remaining need split
// over the remaining slots (ties in pool order).
func matchedControls(proto family.Protocol, c *auditCase, pool []lwmapi.Record, ownRoots int) ([]lwmapi.Record, []lwmapi.DetectOutcome, error) {
	d, err := proto.ParseDesign(c.marked)
	if err != nil {
		return nil, nil, err
	}
	g, _ := family.CDFG(d)
	perFP := candidateRoots(g)
	sum, sumSq := 0, 0
	for _, n := range perFP {
		sum += n
		sumSq += n * n
	}
	target := (len(c.ownRecs) + auditNegatives) * sumSq / max(sum, 1)
	tried := make([]bool, len(pool))
	var negs []lwmapi.Record
	var outs []lwmapi.DetectOutcome
	need := max(0, target-ownRoots)
	for len(negs) < auditNegatives {
		slot := need / (auditNegatives - len(negs))
		best := -1
		for j, rec := range pool {
			if tried[j] {
				continue
			}
			if best < 0 || abs(perFP[rec.RootFP]-slot) < abs(perFP[pool[best].RootFP]-slot) {
				best = j
			}
		}
		if best < 0 {
			return nil, nil, fmt.Errorf("audit %s: too few other owners' records miss this suspect", c.name)
		}
		tried[best] = true
		resp, err := detectOffline(proto, c.marked, c.schedule, pool[best:best+1])
		if err != nil {
			return nil, nil, fmt.Errorf("reference detect %s: %w", c.name, err)
		}
		if resp.Detected > 0 {
			continue
		}
		negs = append(negs, pool[best])
		outs = append(outs, resp.Results[0][0])
		need -= resp.Results[0][0].RootsTried
	}
	return negs, outs, nil
}

// candidateRoots counts, per root fingerprint, the nodes a detection
// scan of g tries: computational nodes with computational fan-in.
func candidateRoots(g *cdfg.Graph) map[string]int {
	out := map[string]int{}
	for _, v := range g.Computational() {
		for _, u := range g.DataIn(v) {
			if g.Node(u).Op.IsComputational() {
				out[domain.RootFingerprint(g, v)]++
				break
			}
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ---- mark ----

// markParams are the mark workload's embed parameters: n=4, ε=0.1 and a
// budget of 1.5× the critical path plus 2 steps (the sched defaults
// τ=20, K=4 otherwise), with server-default engine workers. The looser
// budget lets the small designs at the bottom of the size range host
// four watermarks.
func markParams(text string) (lwmapi.MarkParams, error) {
	proto := lookup(lwmapi.FamilySched)
	d, err := proto.ParseDesign(text)
	if err != nil {
		return lwmapi.MarkParams{}, err
	}
	g, _ := family.CDFG(d)
	cp, err := g.CriticalPath()
	if err != nil {
		return lwmapi.MarkParams{}, err
	}
	p := lwmapi.MarkParams{N: 4, Epsilon: 0.1, Budget: cp + cp/2 + 2}
	proto.Normalize(&p)
	return p, nil
}

// schedMaxTries is schedwm's default placement-attempt bound per
// watermark.
const schedMaxTries = 64

type markCase struct {
	pair   markPair
	params lwmapi.MarkParams
	expect *lwmapi.EmbedResponse
}

// markEasy is the placement-attempt budget of an accepted mark pair:
// two attempts per watermark.
const markEasy = 8

// prepareMark picks each band's pair and computes its reference embed.
// A pair's placement attempts are each placed watermark's Try plus
// MaxTries for each one not placed; they are part of the answer, so any
// correct build makes the same choice. The band's pair is its first
// candidate within markEasy attempts, else the candidate with the fewest
// (ties: the earlier). A few designs need over a hundred attempts for
// any signature, and attempts drive an embed's cost; without this rule
// the allocation per request spread 0.21 (IQR/median) across ten seeds,
// with it 0.05.
func prepareMark(in [][]markPair) (*prepared, error) {
	proto := lookup(lwmapi.FamilySched)
	cases := make([]*markCase, len(in))
	err := parallel(len(in), func(i int) error {
		var best *markCase
		bestAttempts := 0
		for _, pair := range in[i] {
			p, err := markParams(pair.Text)
			if err != nil {
				return fmt.Errorf("design %s: %w", pair.Name, err)
			}
			resp, err := markOffline(proto, pair.Text, pair.Signature, p)
			if err != nil {
				continue
			}
			attempts := (p.N - resp.Watermarks) * schedMaxTries
			for _, r := range resp.Records {
				attempts += r.Try
			}
			if best == nil || attempts < bestAttempts {
				best, bestAttempts = &markCase{pair: pair, params: p, expect: resp}, attempts
			}
			if attempts <= markEasy {
				break
			}
		}
		if best == nil {
			return fmt.Errorf("reference embed %s: no candidate embeds", in[i][0].Name)
		}
		cases[i] = best
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &prepared{answers: map[string]string{}}
	for _, c := range cases {
		p.answers["embed:"+c.pair.Name] = digestJSON(c.expect)
	}
	p.serve = func(tmp string) (*bench, error) {
		return boot(tmp, "mark", 1, func(b *bench) error {
			for _, c := range cases {
				name := "embed:" + c.pair.Name
				body := mustJSON(lwmapi.EmbedRequest{Design: c.pair.Text, Signature: c.pair.Signature, MarkParams: c.params})
				b.reqs = append(b.reqs, &request{
					name: name, kind: "embed", method: http.MethodPost, path: "/v1/embed",
					body: constBody(body), check: checkDigest[lwmapi.EmbedResponse](p.answers[name]),
				})
			}
			b.replay = func(t *tracer) error { return replayMark(t, cases) }
			return nil
		})
	}
	return p, nil
}

// ---- light ----

type lightCase struct {
	inst   gcolorInstance
	embed  *lwmapi.EmbedResponse
	detect *lwmapi.DetectResponse
	// detectReq is the inline detect request: the marked instance, its
	// marked coloring, and the embed's record.
	detectReq lwmapi.DetectRequest
}

// hotDesign is a registered design the light workload's gets read.
type hotDesign struct {
	text, ref string
}

// registryCapacity is the store's default capacity, which light fills.
const registryCapacity = 1024

func gcolorParams() lwmapi.MarkParams {
	p := lwmapi.MarkParams{}
	lookup(lwmapi.FamilyGcolor).Normalize(&p)
	return p
}

func prepareLight(in lightInputs) (*prepared, error) {
	proto := lookup(lwmapi.FamilyGcolor)
	cases := make([]*lightCase, len(in.Gcolor))
	err := parallel(len(cases), func(i int) error {
		inst := in.Gcolor[i]
		emb, err := markOffline(proto, inst.Text, inst.Signature, gcolorParams())
		if err != nil {
			return fmt.Errorf("reference gcolor embed %s: %w", inst.Name, err)
		}
		det, err := detectOffline(proto, emb.MarkedDesign, emb.MarkedSolution, emb.Records)
		if err != nil {
			return fmt.Errorf("reference gcolor detect %s: %w", inst.Name, err)
		}
		if det.Detected != len(emb.Records) {
			return fmt.Errorf("gcolor %s: reference detector found %d of %d records", inst.Name, det.Detected, len(emb.Records))
		}
		cases[i] = &lightCase{inst: inst, embed: emb, detect: det, detectReq: lwmapi.DetectRequest{
			Family:   lwmapi.FamilyGcolor,
			Suspects: []lwmapi.Suspect{{Design: emb.MarkedDesign, Schedule: emb.MarkedSolution}},
			Records:  emb.Records,
		}}
		return nil
	})
	if err != nil {
		return nil, err
	}
	hot := make([]hotDesign, lightHot)
	p := &prepared{answers: map[string]string{}}
	for i := range hot {
		text := freshDesign(in.Templates[i%len(in.Templates)], fmt.Sprintf("h%d_", i))
		hot[i] = hotDesign{text: text, ref: localRef("", text)}
		p.answers[fmt.Sprintf("hot:%d", i)] = hot[i].ref
	}
	for _, c := range cases {
		p.answers["gembed:"+c.inst.Name] = digestJSON(c.embed)
		p.answers["gdetect:"+c.inst.Name] = digestJSON(c.detect)
	}
	p.serve = func(tmp string) (*bench, error) {
		return boot(tmp, "light", 2, func(b *bench) error {
			// Pre-fill the registry to capacity (every shard full), so each
			// timed put appends to the WAL and evicts.
			for i := 0; b.d.store.Counters().Entries < registryCapacity; i++ {
				if i > 8*registryCapacity {
					return fmt.Errorf("pre-fill: registry never reached %d entries", registryCapacity)
				}
				if _, _, err := b.d.store.Put(freshDesign(in.Templates[i%len(in.Templates)], fmt.Sprintf("f%d_", i))); err != nil {
					return fmt.Errorf("pre-fill: %w", err)
				}
			}
			for _, h := range hot {
				ref, err := b.d.put("", h.text)
				if err != nil {
					return fmt.Errorf("registering hot design: %w", err)
				}
				if ref != h.ref {
					return fmt.Errorf("registering hot design: ref %s, local %s", ref, h.ref)
				}
			}
			for slot, s := range in.Order {
				b.reqs = append(b.reqs, lightRequest(s, slot, cases, hot, in.Templates, p.answers))
			}
			gets, puts := map[int]hotDesign{}, map[int]string{}
			for slot, s := range in.Order {
				switch s.Kind {
				case "get":
					gets[s.I] = hot[s.I]
				case "put":
					puts[slot] = in.Templates[s.I%len(in.Templates)]
				}
			}
			b.replay = func(t *tracer) error { return replayLight(t, b.d, cases, gets, puts) }
			return nil
		})
	}
	return p, nil
}

func lightRequest(s lightSlot, slot int, cases []*lightCase, hot []hotDesign, templates []string, answers map[string]string) *request {
	switch s.Kind {
	case "gembed":
		c := cases[s.I]
		name := "gembed:" + c.inst.Name
		return &request{
			name: name, kind: s.Kind, method: http.MethodPost, path: "/v1/embed",
			body: constBody(mustJSON(lwmapi.EmbedRequest{Family: lwmapi.FamilyGcolor, Design: c.inst.Text,
				Signature: c.inst.Signature, MarkParams: gcolorParams()})),
			check: checkDigest[lwmapi.EmbedResponse](answers[name]),
		}
	case "gdetect":
		c := cases[s.I]
		name := "gdetect:" + c.inst.Name
		return &request{
			name: name, kind: s.Kind, method: http.MethodPost, path: "/v1/detect",
			body:  constBody(mustJSON(c.detectReq)),
			check: checkDigest[lwmapi.DetectResponse](answers[name]),
			roots: rootsTried(c.detect),
		}
	case "put":
		tmpl := templates[s.I%len(templates)]
		text := func(pass int) string { return freshDesign(tmpl, fmt.Sprintf("p%dx%d_", pass+1, slot)) }
		return &request{
			name: fmt.Sprintf("put:%d", slot), kind: s.Kind, method: http.MethodPut, path: "/v1/designs",
			body:    func(pass int) []byte { return mustJSON(lwmapi.PutDesignRequest{Design: text(pass)}) },
			check:   checkPut(text),
			perPass: true,
		}
	default:
		h := hot[s.I]
		want := lwmapi.GetDesignResponse{Ref: h.ref, Design: h.text}
		return &request{
			name: fmt.Sprintf("get:%d", s.I), kind: s.Kind, method: http.MethodGet, path: "/v1/designs/" + h.ref,
			check: func(_ int, answer []byte) error {
				var got lwmapi.GetDesignResponse
				if err := json.Unmarshal(answer, &got); err != nil {
					return fmt.Errorf("decoding answer: %w", err)
				}
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("get returned ref %.12s with %d bytes, want %.12s with %d", got.Ref, len(got.Design), want.Ref, len(want.Design))
				}
				return nil
			},
		}
	}
}

// checkPut validates a fresh put: the ref is the registry ref of the
// locally canonicalized text, and the design was new.
func checkPut(text func(pass int) string) func(int, []byte) error {
	return func(pass int, answer []byte) error {
		var got lwmapi.PutDesignResponse
		if err := json.Unmarshal(answer, &got); err != nil {
			return fmt.Errorf("decoding answer: %w", err)
		}
		t := text(pass)
		if want := localRef("", t); got.Ref != want || !got.Created || got.Bytes != len(t) {
			return fmt.Errorf("put answered ref %.12s created=%v bytes=%d, want ref %.12s created=true bytes=%d",
				got.Ref, got.Created, got.Bytes, want, len(t))
		}
		return nil
	}
}
