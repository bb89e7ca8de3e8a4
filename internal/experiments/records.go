package experiments

// Record is the unified machine-readable shape every experiment flattens
// into: one measurement, identified by experiment and scenario, with
// numeric parameters and headline metrics. Every section of the table
// returns these; odpbench renders them as one generic table or, with
// -json, as a single array, and the rows of Gates are statements over
// them — so no experiment needs a printer or a parser of its own.
type Record struct {
	Experiment string             `json:"experiment"`
	Scenario   string             `json:"scenario"`
	Params     map[string]float64 `json:"params,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}
