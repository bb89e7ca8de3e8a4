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

// Cited is called by nothing, and allow.txt cites a paper section for it
// but names no owner.
func Cited() {}

type unusedType struct{}

func (unusedType) Twice(n int) int { return 2 * n }

// Counter is reached from main.
type Counter struct {
	n     int // read by Value
	spare int // written by Inc and in New, read by nothing
	total int // read: Inc takes its address
}

// NewCounter is called by main.
func NewCounter() *Counter { return &Counter{spare: 1} }

// Inc is called by main.
func (c *Counter) Inc() {
	c.n++
	c.spare += 2
	p := &c.total
	*p = c.n
}

// Value is called by main.
func (c *Counter) Value() int { return c.n }

// Config is read by Run. Size and Width are set by main, Depth only by
// lib itself, Owned by nobody but allow.txt, and Ignored is read by nothing.
type Config struct {
	Size    int
	Width   int
	Depth   int
	Owned   int
	Ignored int
}

// Run is called by main.
func Run(c Config) int {
	if c.Depth == 0 {
		c.Depth = 1
	}
	return c.Size * c.Width * c.Depth * c.Owned
}
