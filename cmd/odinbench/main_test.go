package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// self-test checks the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs one self-test-sized invocation and decodes its last line.
func runTiny(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	args = append([]string{"--tiny", "--seed", "1", "--seconds", "0.2",
		"--trace-out", filepath.Join(t.TempDir(), "trace.json")}, args...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String()
}

// TestEveryMetricPrinted runs each workload of BENCHMARK.json untraced and
// traced, and checks that exactly the declared metrics are printed, each
// with its declared unit, on a correct run.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, mode := range []struct {
			trace string
			want  []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			}
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			code, res, out := runTiny(t, "--workload", w.Name, "--trace", mode.trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w.Name, mode.trace, code, res, out)
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%s: %d metrics printed, %d declared", w.Name, mode.trace, len(res.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s printed as %+v (present %t), want unit %q",
						w.Name, mode.trace, m.Name, got, ok, m.Unit)
				}
			}
			if !strings.Contains(out, "num_cpu=") || !strings.Contains(out, "GOMAXPROCS=") || !strings.Contains(out, "go=go") {
				t.Errorf("%s trace=%s: output lacks the num_cpu/GOMAXPROCS/Go stamp", w.Name, mode.trace)
			}
			if mode.trace == "0" {
				for _, name := range []string{"setup_s", "wall_s", "cpu_s", "throughput_per_cpu_s"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.Name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptPinFails flips one pinned checksum per workload in the
// embedded pins and expects the run to report the op as failed and exit 1.
func TestCorruptPinFails(t *testing.T) {
	orig := embeddedPins
	t.Cleanup(func() { embeddedPins = orig })
	var pins map[string]string
	if err := json.Unmarshal(orig, &pins); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		fig8PinKey(true),
		pinKey(fleet8Drift, true, 1),
		pinKey(fleet1024RR, true, 1),
	} {
		if _, ok := pins[key]; !ok {
			t.Fatalf("no pin %s", key)
		}
		bad := map[string]string{}
		for k, v := range pins {
			bad[k] = v
		}
		bad[key] = hex(0xdeadbeef)
		raw, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		embeddedPins = raw
		workload := strings.Split(key, "/")[0]
		code, res, out := runTiny(t, "--workload", workload, "--trace", "0")
		if code != 1 || res.Correct || res.Failed == 0 {
			t.Errorf("%s corrupted: exit %d, result correct=%t failed=%d; want exit 1 and a failed op\n%s",
				key, code, res.Correct, res.Failed, out)
		}
	}
}

// TestMissingFig8PinFails removes the Fig. 8 pin and expects both the
// untraced and the traced run to fail, counting each failed op once: the
// table takes no seed, so it always has a pin.
func TestMissingFig8PinFails(t *testing.T) {
	orig := embeddedPins
	t.Cleanup(func() { embeddedPins = orig })
	var pins map[string]string
	if err := json.Unmarshal(orig, &pins); err != nil {
		t.Fatal(err)
	}
	delete(pins, fig8PinKey(true))
	raw, err := json.Marshal(pins)
	if err != nil {
		t.Fatal(err)
	}
	embeddedPins = raw
	for _, trace := range []string{"0", "1"} {
		code, res, out := runTiny(t, "--workload", "sim-fig8", "--trace", trace)
		if code != 1 || res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("trace=%s without a pin: exit %d, result correct=%t failed=%d of %d; want exit 1 and failed ops, each counted once\n%s",
				trace, code, res.Correct, res.Failed, res.Attempted, out)
		}
	}
}
