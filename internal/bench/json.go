package bench

import (
	"encoding/json"
	"io"
)

// The JSON artifact mirrors micro.csv; CI uploads it (BENCH_micro.json)
// so a Table 5 regression is visible in the artifact diff.

// microJSON is the BENCH_micro.json document: Table 5 latencies keyed by
// memory profile.
type microJSON struct {
	Experiment string                   `json:"experiment"`
	Profiles   map[string][]MicroResult `json:"profiles"`
}

// WriteMicroJSON writes the Table 5 microbenchmark latencies per profile.
func WriteMicroJSON(w io.Writer, byProfile map[string][]MicroResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(microJSON{Experiment: "micro", Profiles: byProfile})
}
