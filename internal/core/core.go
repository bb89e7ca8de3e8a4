// Package core implements the RM-ODP computational viewpoint (Section 5 of
// the tutorial): the model in which an ODP application is specified as
// objects that encapsulate data and behaviour, offer multiple strongly
// typed interfaces, and interact through bindings — all in a
// distribution-transparent manner.
//
// The package provides:
//
//   - object templates: the computational specification of an object (its
//     behaviour plus the interfaces it offers), which the odp facade
//     deploys onto engineering structures;
//   - environment contracts (Section 5.3): the required distribution
//     transparencies and quality-of-service bounds for a binding, consumed
//     by the transparency configurator;
//   - binding objects (Section 5): first-class objects that realise
//     complex multi-party bindings, here a stream binding that fans a
//     producer's flows out to any number of consumers.
package core

import (
	"errors"
	"fmt"

	"repro/internal/types"
	"repro/internal/values"
)

// ErrBadTemplate is wrapped by template validation failures.
var ErrBadTemplate = errors.New("core: invalid object template")

// InterfaceDecl declares one interface a computational object offers,
// together with the environment contract its bindings must satisfy.
type InterfaceDecl struct {
	Type     *types.Interface
	Contract Contract
}

// ObjectTemplate is the computational specification of an object: the
// named behaviour that realises it, the argument that configures the
// behaviour, and the interfaces it offers. Templates are what the
// deployment layer (package odp) instantiates into engineering objects.
type ObjectTemplate struct {
	Name       string
	Behavior   string
	Arg        values.Value
	Interfaces []InterfaceDecl
}

// Validate checks the template: a name, a behaviour, at least one
// interface, all interface types valid and distinctly named.
func (t *ObjectTemplate) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadTemplate)
	}
	if t.Behavior == "" {
		return fmt.Errorf("%w: %s: empty behaviour", ErrBadTemplate, t.Name)
	}
	if len(t.Interfaces) == 0 {
		return fmt.Errorf("%w: %s: offers no interfaces", ErrBadTemplate, t.Name)
	}
	seen := map[string]bool{}
	for i, d := range t.Interfaces {
		if d.Type == nil {
			return fmt.Errorf("%w: %s: interface %d has nil type", ErrBadTemplate, t.Name, i)
		}
		if err := d.Type.Validate(); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrBadTemplate, t.Name, err)
		}
		if seen[d.Type.Name] {
			return fmt.Errorf("%w: %s: duplicate interface type %q", ErrBadTemplate, t.Name, d.Type.Name)
		}
		seen[d.Type.Name] = true
		if err := d.Contract.Validate(); err != nil {
			return fmt.Errorf("%w: %s interface %s: %v", ErrBadTemplate, t.Name, d.Type.Name, err)
		}
	}
	return nil
}
