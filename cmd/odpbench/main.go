// Command odpbench regenerates the measured experiments of EXPERIMENTS.md
// from the one section table in internal/experiments (E6b–E16; the
// figures E1–E9 are package tests, their per-call cost is bench/'s). Every
// section yields the unified experiments.Record shape, printed as one
// generic table.
//
// Usage:
//
//	odpbench                 # every section (E13–E16 at their smoke size)
//	odpbench -only e12       # one section at full size; any id, e6b … e16
//	odpbench -only e13smoke  # the section's CI slice, held to its rows of
//	                         # the gate table: one verdict per row on
//	                         # stderr, exit status 1 when a gate fails
//	odpbench -json           # one JSON array of records instead of tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	if err := run(experiments.Sections, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatalf("odpbench: %v", err)
	}
}

// run is the whole command over the given section table: measure the
// selected sections, print their records, and return the first section
// error or failed gate. With -json, stdout receives one valid array or
// nothing.
func run(table []experiments.Section, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("odpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only   = fs.String("only", "", "run only the section with this id (e6b … e16); <id>smoke runs its CI slice and holds it to its gates")
		asJSON = fs.Bool("json", false, "emit one JSON array of records instead of tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	id, smoke := strings.CutSuffix(*only, "smoke")
	var gates []experiments.Gate
	if smoke {
		gates = experiments.Gates
	}
	var selected []experiments.Section
	var ids []string
	for _, s := range table {
		ids = append(ids, s.ID)
		if s.ID == id || *only == "" {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown section %q: -only takes one of %s, alone or followed by smoke",
			*only, strings.Join(ids, " "))
	}

	var all []experiments.Record
	for _, s := range selected {
		recs, text, err := experiments.Hold(gates, s.ID, func() ([]experiments.Record, string, error) {
			return s.Run(smoke || (*only == "" && s.SmokeInFull))
		}, stderr)
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		all = append(all, recs...)
		if !*asJSON {
			fmt.Fprintln(stdout, s.Title)
			render(stdout, recs)
			fmt.Fprintln(stdout, text)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(all)
	}
	return nil
}

// render prints records as a table: the scenario, then its params, then
// its metrics, each in key order and to seven significant digits. A
// record whose keys differ from the previous one's starts a new header row
// with column widths of its own, so sections that mix record shapes stay
// readable.
func render(w io.Writer, recs []experiments.Record) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	var header string
	for _, r := range recs {
		params, metrics := sortedKeys(r.Params), sortedKeys(r.Metrics)
		if h := "  scenario\t" + strings.Join(append(params, metrics...), "\t"); h != header {
			tw.Flush()
			header = h
			fmt.Fprintln(tw, h)
		}
		fmt.Fprintf(tw, "  %s", r.Scenario)
		for _, k := range params {
			fmt.Fprintf(tw, "\t%.7g", r.Params[k])
		}
		for _, k := range metrics {
			fmt.Fprintf(tw, "\t%.7g", r.Metrics[k])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
