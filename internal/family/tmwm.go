package family

import (
	"context"
	"fmt"
	"strings"

	"localwm/internal/cdfg"
	"localwm/internal/prng"
	"localwm/internal/stats"
	"localwm/internal/tmatch"
	"localwm/internal/tmwm"
	"localwm/lwmapi"
)

// tmwmFamily adapts internal/tmwm + internal/tmatch: watermarks as
// enforced template matchings plus pseudo-primary-output constraints on
// datapath covers. The design text is cdfg (same as sched); the solution
// artifact is a template cover in the tmatch text format; the marked
// design is unmodified — the watermark lives entirely in the cover the
// embed answer ships as marked_solution.
type tmwmFamily struct{}

func (tmwmFamily) Name() string { return lwmapi.FamilyTmwm }

func (tmwmFamily) Info() lwmapi.FamilyInfo {
	return lwmapi.FamilyInfo{
		Name:        lwmapi.FamilyTmwm,
		Description: "enforced template matchings and PPO constraints on datapath covers (tmwm + tmatch)",
		Defaults:    lwmapi.MarkParams{N: 1, Tau: 12, K: 2, Epsilon: 0.25},
		Capabilities: lwmapi.FamilyCaps{
			Batch: true, Robustness: false, Registry: true,
		},
	}
}

func (tmwmFamily) Normalize(p *lwmapi.MarkParams) {
	if p.N == 0 {
		p.N = 1
	}
	if p.Tau == 0 {
		p.Tau = 12
	}
	if p.K == 0 {
		p.K = 2
	}
	if p.Epsilon == 0 {
		p.Epsilon = 0.25
	}
}

func (tmwmFamily) ParseDesign(text string) (Design, error) {
	return parseCDFGDesign(lwmapi.FamilyTmwm, text)
}

func (tmwmFamily) ParseSolution(d Design, text string) (Solution, error) {
	return tmatch.ParseCover(d.(*cdfgDesign).g, tmatch.StandardLibrary(), strings.NewReader(text))
}

// tmwmConfig maps the wire params onto tmwm.Config: K is the enforced
// matching count Z, Tau the domain subtree size, and the budget defaults
// like the scheduling family's (critical path + 10% + 1) so eligibility
// has real slack. The library is always the standard one — covers on the
// wire resolve template names against it.
func tmwmConfig(g *cdfg.Graph, p lwmapi.MarkParams) (tmwm.Config, error) {
	budget := p.Budget
	if budget == 0 {
		cp, err := g.CriticalPath()
		if err != nil {
			return tmwm.Config{}, fmt.Errorf("design: %v", err)
		}
		budget = cp + cp/10 + 1
	}
	return tmwm.Config{
		Z: p.K, Epsilon: p.Epsilon, Budget: budget,
		Lib: tmatch.StandardLibrary(), Tau: p.Tau,
	}, nil
}

func (tmwmFamily) Embed(ctx context.Context, d Design, sig string, p lwmapi.MarkParams, workers int) (*lwmapi.EmbedResponse, error) {
	g := d.(*cdfgDesign).g
	cfg, err := tmwmConfig(g, p)
	if err != nil {
		return nil, err
	}
	ObserveGraph(ctx, g)
	wms, err := tmwm.EmbedMany(g, prng.Signature(sig), cfg, p.N)
	if err != nil {
		return nil, fmt.Errorf("embedding: %v", err)
	}
	enforced, cons := tmwm.CombineConstraints(wms)
	cover, err := tmatch.GreedyCover(g, cfg.Lib, cons, enforced)
	if err != nil {
		return nil, fmt.Errorf("covering: %v", err)
	}
	resp := &lwmapi.EmbedResponse{
		Watermarks:     len(wms),
		TemporalEdges:  len(enforced),
		MarkedDesign:   d.Canonical(),
		MarkedSolution: tmatch.FormatCover(g, cfg.Lib, cover),
	}
	for _, wm := range wms {
		resp.Records = append(resp.Records, lwmapi.FromTmwmRecord(wm.Record()))
	}
	return resp, nil
}

func (tmwmFamily) Detect(ctx context.Context, suspects []Suspect, records []lwmapi.Record, workers int) (*lwmapi.DetectResponse, error) {
	lib := tmatch.StandardLibrary()
	resp := &lwmapi.DetectResponse{Results: make([][]lwmapi.DetectOutcome, len(suspects))}
	for i, sp := range suspects {
		g := sp.Design.(*cdfgDesign).g
		if !sp.Shared {
			ObserveGraph(ctx, g)
		}
		cover := sp.Solution.(*tmatch.Cover)
		resp.Results[i] = make([]lwmapi.DetectOutcome, len(records))
		for j, rec := range records {
			out := &resp.Results[i][j]
			det, err := tmwm.Detect(g, lib, cover, rec.Tmwm())
			if err != nil {
				out.Error = err.Error()
				continue
			}
			out.Found = det.Found
			out.Satisfied = det.Matched
			out.Total = det.Total
			out.Pc = det.Pc.String()
			out.RootsTried = det.RootsTried
			if det.Found {
				resp.Detected++
				if det.Root != cdfg.None {
					out.Root = g.Node(det.Root).Name
				}
			}
		}
	}
	return resp, nil
}

func (tmwmFamily) Verify(ctx context.Context, sp Suspect, sig string, p lwmapi.MarkParams) (*lwmapi.VerifyResponse, error) {
	g := sp.Design.(*cdfgDesign).g
	cfg, err := tmwmConfig(g, p)
	if err != nil {
		return nil, err
	}
	if !sp.Shared {
		ObserveGraph(ctx, g)
	}
	cover := sp.Solution.(*tmatch.Cover)
	// Re-derive the claimed constraints from the signature alone —
	// tmwm.VerifyOwnership generalized to N local watermarks: every
	// enforced matching of every re-derived watermark must be present in
	// the suspect cover, with Pc aggregating 1/Solutions(m) over the
	// matchings found.
	wms, err := tmwm.EmbedMany(g, prng.Signature(sig), cfg, p.N)
	if err != nil {
		return nil, fmt.Errorf("verifying: re-deriving constraints: %v", err)
	}
	inCover := map[string]bool{}
	for _, m := range cover.Matchings {
		inCover[m.Key()] = true
	}
	resp := &lwmapi.VerifyResponse{RootsTried: len(wms)}
	var pc stats.LogProb
	for _, wm := range wms {
		for _, m := range wm.Enforced {
			resp.Total++
			if !inCover[m.Key()] {
				continue
			}
			resp.Satisfied++
			n, err := tmatch.CountCoverings(g, cfg.Lib, tmatch.Constraints{}, m.Nodes)
			if err != nil {
				return nil, fmt.Errorf("verifying: %v", err)
			}
			pc = pc.Mul(stats.FromRatio(1, float64(n)))
		}
	}
	resp.Verified = resp.Satisfied == resp.Total && resp.Total > 0
	resp.Pc = pc.String()
	return resp, nil
}
