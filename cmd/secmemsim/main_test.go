package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"testing"

	"gpusecmem"
)

// TestMain lets the tests run this binary's main as the secmemsim CLI:
// a child process started with runMainEnv set executes main with its
// own arguments.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "SECMEMSIM_RUN_MAIN"

// secmemsim runs the CLI with args and returns its stdout.
func secmemsim(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("secmemsim %v: %v\n%s", args, err, stderr.String())
	}
	return out
}

// libraryJSON is the -json rendering of a direct library run of the
// named scheme.
func libraryJSON(t *testing.T, scheme, bench string, cycles uint64) []byte {
	t.Helper()
	cfg, err := gpusecmem.ConfigForScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxCycles = cycles
	res, err := gpusecmem.Simulate(cfg, bench)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSchemeFlagRunsItsDesignPoint pins that `-scheme name` with no
// knob flags runs exactly the library's design point for name. Knob
// flag defaults used to overwrite the scheme's own values, which made
// unified and secure_nomshr run ctr_mac_bmt.
func TestSchemeFlagRunsItsDesignPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations per scheme")
	}
	const bench, cycles = "fdtd2d", "3000"
	for _, name := range gpusecmem.SchemeNames() {
		t.Run(name, func(t *testing.T) {
			got := secmemsim(t, "-scheme", name, "-bench", bench, "-cycles", cycles, "-json")
			if want := libraryJSON(t, name, bench, 3000); !bytes.Equal(got, want) {
				t.Fatalf("secmemsim -scheme %s differs from the library's %s run", name, name)
			}
		})
	}
}

// TestKnobFlagsReachTheConfig pins that an explicitly set knob flag
// overrides the scheme: ctr_mac_bmt with its MSHRs removed or its
// metadata caches unified is the secure_nomshr or unified design.
func TestKnobFlagsReachTheConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations per case")
	}
	for _, tc := range []struct {
		knob []string
		same string
	}{
		{[]string{"-mshrs", "0"}, "secure_nomshr"},
		{[]string{"-unified"}, "unified"},
	} {
		t.Run(tc.same, func(t *testing.T) {
			args := append([]string{"-scheme", "ctr_mac_bmt", "-bench", "fdtd2d", "-cycles", "3000", "-json"}, tc.knob...)
			if got, want := secmemsim(t, args...), libraryJSON(t, tc.same, "fdtd2d", 3000); !bytes.Equal(got, want) {
				t.Fatalf("secmemsim %v differs from the library's %s run", args, tc.same)
			}
		})
	}
}
