package family

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"localwm/internal/gcolor"
	"localwm/internal/prng"
	"localwm/lwmapi"
)

// gcolorFamily adapts internal/gcolor: watermarks as K extra constraint
// edges confined to a signature-picked locality of a graph-coloring
// instance. The design text is the gcolor graph format; the solution
// artifact is a coloring; the marked design is the constraint-augmented
// instance, and marked_solution carries its DSATUR coloring — a proper
// coloring of the original graph that separates every constrained pair.
type gcolorFamily struct{}

func (gcolorFamily) Name() string { return lwmapi.FamilyGcolor }

func (gcolorFamily) Info() lwmapi.FamilyInfo {
	return lwmapi.FamilyInfo{
		Name:        lwmapi.FamilyGcolor,
		Description: "constraint-edge watermarks on graph-coloring instances (gcolor)",
		Defaults:    lwmapi.MarkParams{N: 1, Tau: 8, K: 4},
		Capabilities: lwmapi.FamilyCaps{
			Batch: true, Robustness: false, Registry: true,
		},
	}
}

func (gcolorFamily) Normalize(p *lwmapi.MarkParams) {
	if p.N == 0 {
		p.N = 1
	}
	if p.Tau == 0 {
		p.Tau = 8
	}
	if p.K == 0 {
		p.K = 4
	}
}

// gcolorDesign wraps a coloring-instance graph.
type gcolorDesign struct {
	g *gcolor.Graph
}

func (d *gcolorDesign) Family() string    { return lwmapi.FamilyGcolor }
func (d *gcolorDesign) Nodes() int        { return d.g.N() }
func (d *gcolorDesign) Canonical() string { return gcolor.FormatGraph(d.g) }
func (d *gcolorDesign) Clone() Design     { return &gcolorDesign{g: d.g.Clone()} }

func (gcolorFamily) ParseDesign(text string) (Design, error) {
	g, err := gcolor.ParseGraph(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	return &gcolorDesign{g: g}, nil
}

func (gcolorFamily) ParseSolution(d Design, text string) (Solution, error) {
	return gcolor.ParseColoring(d.(*gcolorDesign).g.N(), strings.NewReader(text))
}

func gcolorConfig(p lwmapi.MarkParams) gcolor.Config {
	return gcolor.Config{Tau: p.Tau, K: p.K}
}

func (gcolorFamily) Embed(ctx context.Context, d Design, sig string, p lwmapi.MarkParams, workers int) (*lwmapi.EmbedResponse, error) {
	if p.N != 1 {
		return nil, fmt.Errorf("n: graph-coloring embeds one watermark per request, got %d", p.N)
	}
	g := d.(*gcolorDesign).g
	wm, err := gcolor.Embed(g, prng.Signature(sig), gcolorConfig(p))
	if err != nil {
		return nil, fmt.Errorf("embedding: %v", err)
	}
	// g is now the constraint-augmented instance (Embed mutates the
	// privately owned design); its DSATUR coloring is a proper coloring
	// of the original graph that separates every constrained pair.
	col := gcolor.DSATUR(g)
	return &lwmapi.EmbedResponse{
		Watermarks:     1,
		TemporalEdges:  len(wm.Pairs),
		MarkedDesign:   gcolor.FormatGraph(g),
		MarkedSolution: gcolor.FormatColoring(col),
		Records:        []lwmapi.Record{lwmapi.FromGcolorRecord(wm.Record())},
	}, nil
}

func (gcolorFamily) Detect(ctx context.Context, suspects []Suspect, records []lwmapi.Record, workers int) (*lwmapi.DetectResponse, error) {
	resp := &lwmapi.DetectResponse{Results: make([][]lwmapi.DetectOutcome, len(suspects))}
	for i, sp := range suspects {
		g := sp.Design.(*gcolorDesign).g
		col := sp.Solution.(gcolor.Coloring)
		resp.Results[i] = make([]lwmapi.DetectOutcome, len(records))
		for j, rec := range records {
			out := &resp.Results[i][j]
			det, err := gcolor.Detect(g, col, rec.Gcolor())
			if err != nil {
				out.Error = err.Error()
				continue
			}
			out.Found = det.Found
			out.Satisfied = det.Separated
			out.Total = det.Total
			out.Pc = det.Pc.String()
			out.RootsTried = det.RootsTried
			if det.Found {
				resp.Detected++
				out.Root = strconv.Itoa(det.Root)
			}
		}
	}
	return resp, nil
}

func (gcolorFamily) Verify(ctx context.Context, sp Suspect, sig string, p lwmapi.MarkParams) (*lwmapi.VerifyResponse, error) {
	g := sp.Design.(*gcolorDesign).g
	col := sp.Solution.(gcolor.Coloring)
	// Re-derive the constraint pairs from the claimed signature instead
	// of trusting a proffered record: embed into a throwaway clone, then
	// detect the re-derived record in the suspect coloring.
	wm, err := gcolor.Embed(g.Clone(), prng.Signature(sig), gcolorConfig(p))
	if err != nil {
		return nil, fmt.Errorf("verifying: re-deriving constraints: %v", err)
	}
	det, err := gcolor.Detect(g, col, wm.Record())
	if err != nil {
		return nil, fmt.Errorf("verifying: %v", err)
	}
	return &lwmapi.VerifyResponse{
		Verified:   det.Found,
		Satisfied:  det.Separated,
		Total:      det.Total,
		Pc:         det.Pc.String(),
		RootsTried: det.RootsTried,
	}, nil
}
