// Command app is the fixture's one binary.
package main

import (
	"flag"
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	c := lib.NewCounter()
	c.Inc()
	cfg := lib.Config{Size: 2}
	flag.IntVar(&cfg.Width, "width", 1, "a setting the command line writes")
	flag.Parse()
	fmt.Println(s.Area(), lib.Check(), s, c.Value(), lib.Run(cfg))
}
