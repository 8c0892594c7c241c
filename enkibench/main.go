// Command enkibench is the repository's settlement-day benchmark. It
// drives three fixed workloads through the public netproto entry points
// in a closed loop — one day in flight — and prints end-to-end metrics
// (untraced) or a per-layer breakdown of the day (traced), checking
// every settled day on the way:
//
//	enkibench --workload city --seed 1 --seconds 30 --trace 0
//	enkibench --workload quorum --seed 1 --seconds 30 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check exits 1
// and names the workload, the day and the check. See README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("enkibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: city, streets or quorum")
	seed := fs.Uint64("seed", 1, "seed of the households' profiles and the program's trace seed")
	seconds := fs.Float64("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer breakdown")
	out := fs.String("out", ".bench_build/out", "directory for ledger files and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "enkibench: --trace %d must be 0 or 1\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "enkibench: --seconds %g must be positive\n", *seconds)
		return 2
	}
	cfg, err := defaultConfig(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(stderr, "enkibench:", err)
		return 2
	}
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "enkibench:", err)
		var check *checkError
		if errors.As(err, &check) {
			if werr := res.write(stdout, false); werr != nil {
				fmt.Fprintln(stderr, "enkibench:", werr)
			}
		}
		return 1
	}
	if err := res.write(stdout, true); err != nil {
		fmt.Fprintln(stderr, "enkibench:", err)
		return 1
	}
	return 0
}
