// Command bayou-bench regenerates every evaluation artifact of the paper —
// experiments E1 through E13 of DESIGN.md §2 — and prints the paper-claim
// vs. measured-result tables. It exits non-zero if any measured shape
// deviates from the paper's claim.
//
// Usage:
//
//	bayou-bench [-only E7]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"bayou/internal/experiments"
)

func main() {
	log.SetFlags(0)
	only := flag.String("only", "", "run a single experiment, e.g. E7")
	flag.Parse()

	failed := false
	matched := false
	for _, e := range experiments.Registry() {
		if *only != "" && !strings.EqualFold(e.ID, *only) {
			continue
		}
		matched = true
		res, err := e.Run()
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Println(res)
		if !res.OK() {
			failed = true
		}
	}
	if *only != "" && !matched {
		log.Fatalf("bayou-bench: unknown experiment %q (have %s)", *only, experimentRange())
	}
	if failed {
		os.Exit(1)
	}
}

// experimentRange renders the registry's span for error messages.
func experimentRange() string {
	reg := experiments.Registry()
	return reg[0].ID + ".." + reg[len(reg)-1].ID
}
