// Package lib is the fixture's library: main reaches some of it.
package lib

import "strconv"

// Shape is called through Area only.
type Shape interface {
	Area() int
	Perimeter() int
}

// Square satisfies Shape.
type Square struct{ Side int }

// Area is reached through Shape.Area.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter satisfies Shape.Perimeter, which nothing calls.
func (s Square) Perimeter() int { return 4 * s.Side }

// String is run by fmt on a reached type.
func (s Square) String() string { return "square " + strconv.Itoa(s.Side) }

type failure struct{}

// Error is run by whoever prints the error.
func (failure) Error() string { return "failure" }

// Check is called by main.
func Check() error { return failure{} }

// Unused is called by nothing,
// and counted with its doc comment.
func Unused() {}

// Allowed is called by nothing but named in allow.txt.
func Allowed() {}

// AlsoAllowed is named by an alternative of an allow.txt line.
func AlsoAllowed() {}

type unusedType struct{}

func (unusedType) Twice(n int) int { return 2 * n }
