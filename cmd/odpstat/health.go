package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/health"
)

// The health view is client-side: odpstat fetches the node's raw metric
// dump (the Metrics operation) and renders the failure-detector gauges —
// health.<endpoint>.state / .suspicion plus the probe counters — as a
// liveness table, with the circuit-breaker rows from policy.* below it.
// The node side needs nothing beyond Config.Health with Management on.

// endpointHealth is one watched endpoint's row, assembled from the
// health.<endpoint>.* instruments in a metrics dump.
type endpointHealth struct {
	endpoint    string
	state       int64 // health.State numeric value, -1 when absent
	suspicion   int64 // per-mille, 0..1000
	probes      int64
	misses      int64
	transitions int64
	rtt         string // histogram summary as dumped, "" when unprobed
}

// breakerHealth is one failure-policy bundle's breaker summary.
type breakerHealth struct {
	name                            string // "" = the unnamed policy.* bundle
	openNow                         int64
	opens, closes, probes, rejected int64
}

// breakerFields are the policy.* instruments the breaker table shows,
// longest first so "breaker.open_now" wins over "breaker.open".
var breakerFields = []string{
	"breaker.open_now", "breaker.rejected", "breaker.probes",
	"breaker.close", "breaker.open",
}

// renderHealth turns a Registry.Dump into the liveness + breaker view.
func renderHealth(metrics string) string {
	eps := map[string]*endpointHealth{}
	brs := map[string]*breakerHealth{}
	ep := func(name string) *endpointHealth {
		e := eps[name]
		if e == nil {
			e = &endpointHealth{endpoint: name, state: -1}
			eps[name] = e
		}
		return e
	}

	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		kind, name := fields[0], fields[1]
		if rest, ok := strings.CutPrefix(name, "health."); ok {
			// The endpoint is everything up to the last dot — watch
			// keys may themselves contain dots (host:port endpoints).
			i := strings.LastIndex(rest, ".")
			if i < 0 {
				continue
			}
			endpoint, field := rest[:i], rest[i+1:]
			if kind == "histogram" && field == "rtt_ns" {
				ep(endpoint).rtt = strings.Join(fields[2:], " ")
				continue
			}
			n, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				continue
			}
			switch field {
			case "state":
				ep(endpoint).state = n
			case "suspicion":
				ep(endpoint).suspicion = n
			case "probes":
				ep(endpoint).probes = n
			case "misses":
				ep(endpoint).misses = n
			case "transitions":
				ep(endpoint).transitions = n
			}
			continue
		}
		if rest, ok := strings.CutPrefix(name, "policy."); ok {
			bundle, field, ok := splitBreaker(rest)
			if !ok {
				continue // retry.* and other non-breaker policy metrics
			}
			n, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				continue
			}
			b := brs[bundle]
			if b == nil {
				b = &breakerHealth{name: bundle}
				brs[bundle] = b
			}
			switch field {
			case "breaker.open_now":
				b.openNow = n
			case "breaker.open":
				b.opens = n
			case "breaker.close":
				b.closes = n
			case "breaker.probes":
				b.probes = n
			case "breaker.rejected":
				b.rejected = n
			}
		}
	}

	var b strings.Builder
	if len(eps) == 0 {
		b.WriteString("no health instruments — is the failure detector enabled on this node?\n")
	} else {
		names := make([]string, 0, len(eps))
		for n := range eps {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%-24s %-8s %9s %8s %8s %6s  %s\n",
			"endpoint", "state", "suspicion", "probes", "misses", "trans", "rtt")
		for _, n := range names {
			e := eps[n]
			rtt := e.rtt
			if rtt == "" {
				rtt = "-"
			}
			fmt.Fprintf(&b, "%-24s %-8s %8.1f%% %8d %8d %6d  %s\n",
				e.endpoint, stateName(e.state), float64(e.suspicion)/10,
				e.probes, e.misses, e.transitions, rtt)
		}
	}
	if len(brs) > 0 {
		names := make([]string, 0, len(brs))
		for n := range brs {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "\n%-24s %8s %8s %8s %8s %8s\n",
			"breakers", "open now", "opens", "closes", "probes", "rejects")
		for _, n := range names {
			r := brs[n]
			label := n
			if label == "" {
				label = "(default)"
			}
			fmt.Fprintf(&b, "%-24s %8d %8d %8d %8d %8d\n",
				label, r.openNow, r.opens, r.closes, r.probes, r.rejected)
		}
	}
	return b.String()
}

// splitBreaker maps the part of a metric name after "policy." to a
// (bundle, breaker field) pair: "breaker.open" is the unnamed bundle,
// "t.breaker.open" is bundle "t". Non-breaker policy metrics (retry.*)
// report ok=false.
func splitBreaker(rest string) (bundle, field string, ok bool) {
	for _, f := range breakerFields {
		if rest == f {
			return "", f, true
		}
		if strings.HasSuffix(rest, "."+f) {
			return rest[:len(rest)-len(f)-1], f, true
		}
	}
	return "", "", false
}

func stateName(v int64) string {
	if v < 0 {
		return "?"
	}
	return health.State(v).String()
}
