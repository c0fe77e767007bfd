// Command perfbench is the repository's benchmark: it runs one named
// workload (serve, ingest or churn) against the real stack for a fixed
// time, checks every output against a content oracle, and prints every
// metric by name with its unit. The last line of standard output is the
// machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 they are the per-layer ones, from a traced run paired
// with an untraced one (their difference is the tracing overhead).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ingest --seed 7 --seconds 10 --trace 0
//
// See perfbench/README.md for what each workload and metric is.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// recoveryReps is how many times the power-cut image is mounted;
	// recovery_s is their median.
	recoveryReps int
	// mutateRead is a test hook applied to every read result before the
	// content check.
	mutateRead func([]byte)
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parseFlags(args []string) (options, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(io.Discard)
	name := fl.String("workload", "", "workload: serve, ingest or churn")
	seed := fl.Int64("seed", 0, "workload seed (0 = the workload's fixed default)")
	seconds := fl.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return options{}, err
	}
	if fl.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fl.Args())
	}
	spec, err := lookupWorkload(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds < 1 || *seconds > 60 {
		return options{}, fmt.Errorf("--seconds %d out of range [1, 60]", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1")
	}
	o := options{workload: spec.name, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		setupReps: 5, recoveryReps: 9}
	if o.seed == 0 {
		o.seed = spec.profile.Seed
	}
	return o, nil
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve|ingest|churn [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	res, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark invocation, printing the human-readable
// report to out, and returns the result line.
func run(o options, out io.Writer) (result, error) {
	spec, err := lookupWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.trace {
		return runTraced(spec, o, out)
	}
	return runUntraced(spec, o, out)
}
