// Command perfbench is the repository's end-to-end benchmark. It starts
// dyntcd as a child process, restores each workload's trees from
// snapshots it builds from the seed, drives the leader over HTTP from
// closed-loop clients for a fixed time, checks every answer against an
// independent mirror and the replicated state against the leader, and
// prints one JSON result line. With -trace 1 it then runs the same op
// stream in-process against each layer's public API with a span per call
// and prints the per-layer metrics instead. See README.md.
//
// Run it from the repository root through run.sh, which builds dyntcd and
// this command first:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 20     # spread of every metric
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"syscall"
)

func main() {
	// A signal stops every leader before exiting, so no dyntcd outlives
	// the benchmark.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllLeaders()
		os.Exit(1)
	}()
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: churn, labels or forest")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = also run the in-process traced pass and print the per-layer metrics")
	short := fs.Bool("short", false, "small inputs, for the benchmark's own tests")
	steady := fs.Int("steady", 0, "run every workload this many times, alternating the order, and print each metric's median and quartiles")
	bin := fs.String("dyntcd", ".bench_build/bin/dyntcd", "dyntcd binary")
	work := fs.String("work", ".bench_build/perfbench", "directory for run state and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := os.Stat(*bin); err != nil {
		fmt.Fprintf(stderr, "perfbench: dyntcd binary: %v\n", err)
		return 1
	}
	if *steady > 0 {
		if err := steadiness(*steady, *seed, *seconds, *trace, *short, *bin, *work, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(stderr, "perfbench: --workload must be one of %v\n", workloadNames)
		return 2
	}

	res, err := runWorkload(runCfg{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		short: *short, dyntcd: *bin, workDir: *work, out: stdout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// steadiness runs every workload n times with seeds seed..seed+n-1,
// alternating the workload order each round, each run a child process
// of this command, and prints each metric's median, quartiles and spread
// (Q3-Q1 over the median).
func steadiness(n int, seed uint64, seconds float64, trace int, short bool, bin, work string, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	units := map[key]string{}
	shares := map[string][]string{}
	for round := 0; round < n; round++ {
		order := slices.Clone(workloadNames)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		for _, wl := range order {
			s := seed + uint64(round)
			args := []string{"--workload", wl, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace),
				"--dyntcd", bin, "--work", work}
			if short {
				args = append(args, "--short")
			}
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			// The child stops its leader if this process dies first.
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, s, err)
			}
			out.Write(stdout.Bytes())
			res, err := lastResult(stdout.Bytes())
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, s, err)
			}
			fmt.Fprintf(out, "round %d %s seed %d: correct=%v attempted=%d failed=%d\n",
				round+1, wl, s, res.Correct, res.Attempted, res.Failed)
			shares[wl] = append(shares[wl], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for name, m := range res.Metrics {
				k := key{wl, name}
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	keys := make([]key, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(out, "%-8s %-28s %14s %14s %14s %8s %s\n", "workload", "metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range keys {
		q1, m, q3 := quartiles(values[k])
		spread := 0.0
		if m != 0 {
			spread = (q3 - q1) / m
		}
		fmt.Fprintf(out, "%-8s %-28s %14.4f %14.4f %14.4f %8.4f %s\n", k.workload, k.metric, q1, m, q3, spread, units[k])
	}
	for _, wl := range workloadNames {
		fmt.Fprintf(out, "%s failed/attempted: %v\n", wl, shares[wl])
	}
	return nil
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = bytes.Clone(sc.Bytes())
		}
	}
	if last == nil {
		return nil, errors.New("no output")
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}
