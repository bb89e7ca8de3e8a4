package netsim

import "time"

// This file adds the WAN vocabulary: composable link profiles and
// host-set (federated-domain) operations. A wide-area path is a series
// of segments — access link, metro ring, long-haul — and its profile is
// the composition of theirs; Compose builds it. Domains name host sets
// so a chaos script can partition or degrade "everything west of the
// ocean" in one fault (see ChaosConfig.Domains), and SetLinkHosts /
// PartitionHosts / HealHosts / ClearLinkHosts apply pairwise operations
// between two sets directly.

// Compose stacks link profiles as path segments traversed in series:
// latencies and jitters add, loss combines as 1-∏(1-pᵢ) (a frame
// survives only if every segment delivers it), duplication combines the
// same way, and the tightest finite bandwidth wins.
func Compose(segments ...LinkProfile) LinkProfile {
	var out LinkProfile
	survive := 1.0
	unique := 1.0
	for _, s := range segments {
		out.Latency += s.Latency
		out.Jitter += s.Jitter
		survive *= 1 - s.DropRate
		unique *= 1 - s.DupRate
		if s.Bandwidth > 0 && (out.Bandwidth == 0 || s.Bandwidth < out.Bandwidth) {
			out.Bandwidth = s.Bandwidth
		}
	}
	out.DropRate = 1 - survive
	out.DupRate = 1 - unique
	return out
}

// Scale multiplies a profile's delays by f (loss, duplication and
// bandwidth are untouched: a CI-shrunk WAN is faster, not cleaner).
// Experiments use it to run one nominal WAN topology at full scale or
// shrunk to smoke-test time.
func Scale(p LinkProfile, f float64) LinkProfile {
	p.Latency = time.Duration(float64(p.Latency) * f)
	p.Jitter = time.Duration(float64(p.Jitter) * f)
	return p
}

// Nominal WAN segment profiles. They are building blocks for Compose
// and Scale, not measurements: round numbers in the right regimes.
var (
	// WANMetro is a same-metro hop: ~1ms, tight jitter, clean.
	WANMetro = LinkProfile{Latency: time.Millisecond, Jitter: 200 * time.Microsecond}
	// WANContinental is a cross-continent hop: ~30ms with a little loss.
	WANContinental = LinkProfile{Latency: 30 * time.Millisecond, Jitter: 3 * time.Millisecond, DropRate: 0.001}
)

// SetLinkHosts installs forward on every a→b link and reverse on every
// b→a link for a ∈ as, b ∈ bs — an asymmetric inter-domain path (set
// reverse = forward for a symmetric one). Pairs with equal host names
// are skipped.
func (n *Network) SetLinkHosts(as, bs []string, forward, reverse LinkProfile) {
	for _, a := range as {
		for _, b := range bs {
			if a == b {
				continue
			}
			n.SetLink(a, b, forward)
			n.SetLink(b, a, reverse)
		}
	}
}

// ClearLinkHosts removes the explicit profiles between the two sets.
func (n *Network) ClearLinkHosts(as, bs []string) {
	for _, a := range as {
		for _, b := range bs {
			if a == b {
				continue
			}
			n.ClearLink(a, b)
		}
	}
}

// PartitionHosts splits every a–b pair across the two sets.
func (n *Network) PartitionHosts(as, bs []string) {
	for _, a := range as {
		for _, b := range bs {
			if a == b {
				continue
			}
			n.Partition(a, b)
		}
	}
}

// HealHosts removes every a–b partition across the two sets.
func (n *Network) HealHosts(as, bs []string) {
	for _, a := range as {
		for _, b := range bs {
			if a == b {
				continue
			}
			n.Heal(a, b)
		}
	}
}
