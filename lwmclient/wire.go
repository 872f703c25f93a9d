package lwmclient

import (
	"fmt"

	"localwm/lwmapi"
)

// The wire types are aliases of the shared lwmapi package — the same
// types the daemon's handlers decode, so the two sides of the contract
// cannot drift. Only the client-side orchestration types (the chunked
// DetectRequest and its partial DetectResult) live here.

// Record is the detector-facing watermark record, exactly as the lwm CLI
// writes it and the lwmd service consumes it.
type Record = lwmapi.Record

// MarkParams are the public embedding parameters shared by embed and
// verify requests; zero values take the service's defaults (n=2, τ=20,
// K=4, ε=0.25, budget = critical path + 10%).
type MarkParams = lwmapi.MarkParams

// EmbedRequest asks the service to embed scheduling watermarks. The
// design travels inline (Design, cdfg text) or as a registry reference
// (DesignRef, from PutDesign).
type EmbedRequest = lwmapi.EmbedRequest

// EmbedResponse is the service's embed answer.
type EmbedResponse = lwmapi.EmbedResponse

// Suspect pairs a suspect design with its schedule for batch detection.
// The design travels inline (Design) or by registry reference
// (DesignRef); when both are set the service resolves the reference and
// the client uses the inline text only as its ref-miss fallback.
type Suspect = lwmapi.Suspect

// DetectOutcome is one suspect×record detection verdict.
type DetectOutcome = lwmapi.DetectOutcome

// VerifyRequest asks the service to adjudicate an ownership claim from
// the claimed signature alone.
type VerifyRequest = lwmapi.VerifyRequest

// VerifyResponse is the service's verification verdict.
type VerifyResponse = lwmapi.VerifyResponse

// PutDesignRequest registers a design with the service's registry.
type PutDesignRequest = lwmapi.PutDesignRequest

// PutDesignResponse is the registry's answer to a put.
type PutDesignResponse = lwmapi.PutDesignResponse

// GetDesignResponse returns a registered design's canonical text.
type GetDesignResponse = lwmapi.GetDesignResponse

// DetectRequest is a batch detection: every record scanned in every
// suspect. The client splits suspects into chunks of ChunkSize (default
// Config.ChunkSize) and retries each chunk independently, so one failed
// chunk cannot lose the batch.
type DetectRequest struct {
	Suspects []Suspect
	Records  []Record
	// Family selects the watermark family; empty means the scheduling
	// family. Every chunk carries it.
	Family string
	// Workers is the detection fan-out across suspect×record pairs (0:
	// server default).
	Workers int
	// ChunkSize overrides Config.ChunkSize for this call when positive.
	ChunkSize int
}

// ListFamiliesResponse is the family-discovery answer (GET /v1/families).
type ListFamiliesResponse = lwmapi.ListFamiliesResponse

// FamilyInfo describes one served watermark family.
type FamilyInfo = lwmapi.FamilyInfo

// ChunkError records one chunk of suspects whose request exhausted its
// attempts; the suspect rows in [Start, End) have no results.
type ChunkError struct {
	Start, End int
	Err        error
}

func (e ChunkError) Error() string {
	return fmt.Sprintf("suspects [%d,%d): %v", e.Start, e.End, e.Err)
}

// DetectResult is a batch detection outcome, possibly partial: Results
// is indexed like the request's suspects, with nil rows for suspects
// whose chunk failed (listed in Failed). Partial results are the point —
// the paper's watermarks are locally detectable, so every chunk that
// survived transport is independently meaningful.
type DetectResult struct {
	// Results[i][j] is record j scanned in suspect i; nil row when
	// suspect i's chunk failed.
	Results  [][]DetectOutcome
	Detected int // total found verdicts across delivered rows
	Failed   []ChunkError
}

// Complete reports whether every chunk was delivered.
func (r *DetectResult) Complete() bool { return len(r.Failed) == 0 }
