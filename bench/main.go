// Command lppa-bench is the LPPA benchmark. It drives the auction only
// through its public entry points — round.Run, epoch.Service, and the
// transport servers and BidderClient — on four seeded workloads:
//
//	lppa-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out dir]
//	lppa-bench compare [-agree] [-spec BENCHMARK.json] <base-dir> <cand-dir>
//
// A run measures the end-to-end metrics with tracing off; --trace 1 halves
// the untraced phase and spends the other half on a traced pass that times
// each layer's public calls from outside. Every run checks its awards
// against the plaintext truth and its transcript digest, prints each metric
// with its unit and sample count, and ends with one JSON line. bench/run.sh
// builds and runs it from the repository root; see bench/README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"lppa/internal/obs"
)

// runConfig is one invocation's choice of seed, length and mode.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// tiny shrinks every workload to test size; expected digests then do
	// not apply.
	tiny bool
}

// workloads maps each workload name (BENCHMARK.json lists the same names
// and why each was chosen) to the function that runs it.
var workloads = map[string]func(runConfig) (*measurement, error){
	"round-urban":  func(rc runConfig) (*measurement, error) { return runRounds(rc, urbanRounds(rc.tiny)) },
	"round-rural":  func(rc runConfig) (*measurement, error) { return runRounds(rc, ruralRounds(rc.tiny)) },
	"service-open": func(rc runConfig) (*measurement, error) { return runService(rc, openService(rc.tiny)) },
	"net-loopback": func(rc runConfig) (*measurement, error) { return runNet(rc, loopbackNet(rc.tiny)) },
}

// digests.json pins each workload's set-up and warm-up transcript digest
// for seeds 1 and 2 at standard size.
//
//go:embed digests.json
var digestsJSON []byte

func expectedDigest(workload string, rc runConfig) (string, bool) {
	if rc.tiny {
		return "", false
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return "", false
	}
	d, ok := all[workload][strconv.FormatInt(rc.seed, 10)]
	return d, ok
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("lppa-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: round-urban, round-rural, service-open or net-loopback")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced per-layer pass")
	out := fs.String("out", ".bench_build/results", "directory for result files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "lppa-bench: need --workload (one of round-urban, round-rural, service-open, net-loopback), --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	// Both sides of every comparison run on two cores, whatever the host.
	runtime.GOMAXPROCS(2)
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	r, spans, err := measure(*name, run, rc)
	if err != nil {
		fmt.Fprintf(stderr, "lppa-bench: %s: %v\n", *name, err)
		return 1
	}
	if err := r.write(*out, spans); err != nil {
		fmt.Fprintf(stderr, "lppa-bench: write results: %v\n", err)
		return 1
	}
	if err := r.print(stdout); err != nil {
		return 1
	}
	if !r.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and reports it.
func measure(name string, run func(runConfig) (*measurement, error), rc runConfig) (*result, []*obs.Span, error) {
	started := time.Now()
	m, err := run(rc)
	if err != nil {
		return nil, nil, err
	}
	return report(name, rc, started, m), m.spans, nil
}
