package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/health"
)

// The health view is client-side: odpstat fetches the node's raw metric
// dump (the Metrics operation) and renders the failure detector's
// health.<endpoint>.* lines as a liveness table, with the breaker sets'
// policy.<host>.breaker.* lines below it. Both are keyed sets read from
// the components' Stats, so every name is <prefix><key>.<field>. The node
// side needs nothing beyond Config.Health with Management on.

// endpointHealth is one watched endpoint's row, assembled from the
// health.<endpoint>.* lines of a metrics dump.
type endpointHealth struct {
	endpoint    string
	state       int64 // health.State numeric value, -1 when absent
	suspicion   int64 // per-mille, 0..1000
	probes      int64
	misses      int64
	missRun     int64 // consecutive misses right now
	transitions int64
	windowRTT   time.Duration // the window's mean round trip, which sets the probe timeout
	rtt         string        // histogram summary as dumped, "" when unprobed
}

// breakerHealth is one host's breaker-set summary.
type breakerHealth struct {
	openNow                         int64
	opens, closes, probes, rejected int64
}

// renderHealth turns a Registry.Dump into the liveness + breaker view.
func renderHealth(metrics string) string {
	eps := map[string]*endpointHealth{}
	brs := map[string]*breakerHealth{}
	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		kind, name := fields[0], fields[1]
		n, _ := strconv.ParseInt(fields[2], 10, 64)
		if endpoint, field, ok := splitMetric(name, "health."); ok {
			e := eps[endpoint]
			if e == nil {
				e = &endpointHealth{endpoint: endpoint, state: -1}
				eps[endpoint] = e
			}
			switch field {
			case "rtt_ns":
				if kind == "histogram" {
					e.rtt = strings.Join(fields[2:], " ")
				}
			case "state":
				e.state = n
			case "suspicion":
				e.suspicion = n
			case "probes":
				e.probes = n
			case "misses":
				e.misses = n
			case "miss_run":
				e.missRun = n
			case "transitions":
				e.transitions = n
			case "window_rtt_ns":
				e.windowRTT = time.Duration(n)
			}
			continue
		}
		key, field, ok := splitMetric(name, "policy.")
		host, isBreaker := strings.CutSuffix(key, ".breaker")
		if !ok || !isBreaker {
			continue
		}
		b := brs[host]
		if b == nil {
			b = &breakerHealth{}
			brs[host] = b
		}
		switch field {
		case "open_now":
			b.openNow = n
		case "opens":
			b.opens = n
		case "closes":
			b.closes = n
		case "probes":
			b.probes = n
		case "rejected":
			b.rejected = n
		}
	}

	var b strings.Builder
	if len(eps) == 0 {
		b.WriteString("no health instruments — is the failure detector enabled on this node?\n")
	} else {
		fmt.Fprintf(&b, "%-24s %-8s %9s %8s %8s %5s %6s %10s  %s\n",
			"endpoint", "state", "suspicion", "probes", "misses", "run", "trans", "window", "rtt")
		for _, n := range sortedKeys(eps) {
			e := eps[n]
			rtt := e.rtt
			if rtt == "" {
				rtt = "-"
			}
			fmt.Fprintf(&b, "%-24s %-8s %8.1f%% %8d %8d %5d %6d %10s  %s\n",
				e.endpoint, stateName(e.state), float64(e.suspicion)/10,
				e.probes, e.misses, e.missRun, e.transitions, e.windowRTT, rtt)
		}
	}
	if len(brs) > 0 {
		fmt.Fprintf(&b, "\n%-24s %8s %8s %8s %8s %8s\n",
			"breakers", "open now", "opens", "closes", "probes", "rejects")
		for _, n := range sortedKeys(brs) {
			r := brs[n]
			fmt.Fprintf(&b, "%-24s %8d %8d %8d %8d %8d\n",
				n, r.openNow, r.opens, r.closes, r.probes, r.rejected)
		}
	}
	return b.String()
}

// splitMetric splits a keyed-set metric name <prefix><key>.<field>. The
// key may itself contain dots (host:port endpoints); the field never does.
func splitMetric(name, prefix string) (key, field string, ok bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	i := strings.LastIndexByte(rest, '.')
	if !ok || i <= 0 {
		return "", "", false
	}
	return rest[:i], rest[i+1:], true
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func stateName(v int64) string {
	if v < 0 {
		return "?"
	}
	return health.State(v).String()
}
