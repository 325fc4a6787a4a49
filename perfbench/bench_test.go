package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// dyntcdBin is built once from the repository for every test.
var dyntcdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dyntcdBin = filepath.Join(dir, "dyntcd")
	build := exec.Command("go", "build", "-o", dyntcdBin, "./cmd/dyntcd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build dyntcd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// spec is the part of BENCHMARK.json the tests compare against.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runShort runs the command with the flags a benchmark run passes, on small
// inputs for one second, and returns its result line.
func runShort(t *testing.T, workload string, trace int) *result {
	t.Helper()
	var out, errb bytes.Buffer
	code := realMain([]string{"--workload", workload, "--seed", "7", "--seconds", "1",
		"--trace", fmt.Sprint(trace), "--short", "--dyntcd", dyntcdBin, "--work", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	res, err := lastResult(out.Bytes())
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	return res
}

// TestShortWorkloads runs each workload's short mode, untraced and
// traced, and checks every op succeeded and the printed metric names and
// units are exactly those BENCHMARK.json declares.
func TestShortWorkloads(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for trace, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w, trace), func(t *testing.T) {
				res := runShort(t, w, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestOracleCountsWrongAnswer perturbs one expected read answer and
// checks the run reports it as a failed op and as incorrect.
func TestOracleCountsWrongAnswer(t *testing.T) {
	res, err := runWorkload(runCfg{workload: "churn", seed: 7, seconds: 0.5, short: true,
		dyntcd: dyntcdBin, workDir: t.TempDir(), corrupt: 5, out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Correct {
		t.Fatalf("wrong expected answer: failed=%d correct=%v, want 1 failed and incorrect", res.Failed, res.Correct)
	}
}

// TestMirrorMatchesProgram checks the oracle evaluates and numbers trees
// as the program does: every world's trees are replayed on an Expr, which
// must assign the predicted IDs and evaluate to the mirror's root.
func TestMirrorMatchesProgram(t *testing.T) {
	for _, w := range workloadNames {
		if _, err := buildWorld(w, 3, true); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, m, q3 := quartiles(xs)
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
}

// TestRefusesOutsideCheckout checks the command fails, without a result
// line, where there is no dyntcd to build.
func TestRefusesOutsideCheckout(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "perfbench", "run.sh"), script, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "churn", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded outside a checkout: %s", out)
	}
	if strings.Contains(string(out), `"correct"`) {
		t.Fatalf("run.sh printed a result outside a checkout: %s", out)
	}
}
