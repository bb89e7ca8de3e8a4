package health

import (
	"fmt"
	"time"

	"repro/internal/values"
)

// EventTopic is the bus topic liveness transitions are published on
// (the odp facade re-exports it as TopicLiveness). Payloads are the
// records minted by Transition.ToValue.
const EventTopic = "health.liveness"

// ToValue encodes the transition as a bus payload record.
func (t Transition) ToValue() values.Value {
	return values.Record(
		values.F("endpoint", values.Str(t.Endpoint)),
		values.F("from", values.Int(int64(t.From))),
		values.F("to", values.Int(int64(t.To))),
		values.F("suspicion_pm", values.Int(int64(t.Suspicion*1000))),
		values.F("rtt_ns", values.Int(int64(t.RTT))),
		values.F("at_ns", values.Int(t.At.UnixNano())),
	)
}

// TransitionFromValue decodes a record published on EventTopic.
func TransitionFromValue(v values.Value) (Transition, error) {
	var t Transition
	str := func(name string) (string, bool) {
		fv, ok := v.FieldByName(name)
		if !ok {
			return "", false
		}
		return fv.AsString()
	}
	num := func(name string) (int64, bool) {
		fv, ok := v.FieldByName(name)
		if !ok {
			return 0, false
		}
		return fv.AsInt()
	}
	ep, ok := str("endpoint")
	if !ok {
		return t, fmt.Errorf("health: transition event missing endpoint")
	}
	t.Endpoint = ep
	from, ok := num("from")
	if !ok {
		return t, fmt.Errorf("health: transition event missing from")
	}
	to, ok := num("to")
	if !ok || min(from, to) < int64(Alive) || max(from, to) > int64(Dead) {
		return t, fmt.Errorf("health: transition event missing to, or a state out of range (%d to %d)", from, to)
	}
	t.From, t.To = State(from), State(to)
	if pm, ok := num("suspicion_pm"); ok {
		t.Suspicion = float64(pm) / 1000
	}
	if ns, ok := num("rtt_ns"); ok {
		t.RTT = time.Duration(ns)
	}
	if ns, ok := num("at_ns"); ok {
		t.At = time.Unix(0, ns)
	}
	return t, nil
}
