// Command app is the fixture's one binary.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	c := lib.NewCounter()
	c.Inc()
	fmt.Println(s.Area(), lib.Check(), s, c.Value())
}
