package repro

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleBuilds vets and builds the benchmark instrument. It is
// a nested module (repro/benchmark, replacing repro with this checkout), so
// `go build ./...` never compiles it; without this test an exported-API
// change in internal/ that breaks the instrument would pass `go test ./...`.
func TestBenchmarkModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	for _, args := range [][]string{
		{"vet", "./..."},
		{"build", "-o", os.DevNull, "."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "benchmark"
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("go %v in benchmark/: %v\n%s", args, err, out)
		}
	}
}
