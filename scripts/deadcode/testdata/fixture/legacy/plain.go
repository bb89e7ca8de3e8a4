// Package legacy brings back, one form each, what the fixture's retired.txt
// retires. No binary imports it, so the reachability scan never loads it.
package legacy

import (
	"context"
	"fmt"

	"fixture/internal/lib"
)

// Unbatched is declared again.
func Unbatched() {}

// senderLoop is named in this comment only, which is not code.
var c = lib.NewCounter()

var inc = c.Inc // a method value

var todo = context.TODO // a function value

var ran = fmt.Sprint(lib.Run(lib.Config{Size: 1}))

var moving = map[string]bool{} // a package-level var

func carry() { type carrier interface{} } // a type local to a function
