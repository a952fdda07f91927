package tensor

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// restoreTile snapshots the tile shape and packing cutoff (and whether they
// were set at runtime) and restores them when the test finishes, so a test
// that switches kernels can't leak its choice into the rest of the package.
func restoreTile(t testing.TB) {
	t.Helper()
	tile, cut, manual := tileShape.Load(), smallCutoff.Load(), manualTune.Load()
	t.Cleanup(func() {
		tileShape.Store(tile)
		smallCutoff.Store(cut)
		manualTune.Store(manual)
	})
}

func TestSetTileShapeValidation(t *testing.T) {
	restoreTile(t)
	for _, ok := range [][2]int{{0, 0}, {2, 4}, {4, 4}} {
		if err := SetTileShape(ok[0], ok[1]); err != nil {
			t.Errorf("SetTileShape(%d,%d): %v", ok[0], ok[1], err)
		}
		if mr, nr := TileShape(); mr != ok[0] || nr != ok[1] {
			t.Errorf("TileShape = %dx%d after SetTileShape(%d,%d)", mr, nr, ok[0], ok[1])
		}
	}
	for _, bad := range [][2]int{{1, 4}, {4, 2}, {8, 1}, {8, 4}, {-2, 4}, {0, 4}} {
		if err := SetTileShape(bad[0], bad[1]); err == nil {
			t.Errorf("SetTileShape(%d,%d) succeeded, want error", bad[0], bad[1])
		}
	}
	if TuneSource() != "manual" {
		t.Errorf("TuneSource = %q after SetTileShape, want manual", TuneSource())
	}
}

// settingsChildEnv marks the re-executed test binary of
// TestHostCacheAndEnvIgnored.
const settingsChildEnv = "GMREG_TENSOR_SETTINGS_CHILD"

// TestHostCacheAndEnvIgnored starts the test binary as a fresh process whose
// user cache holds a valid per-host kernel config file and whose environment
// carries the variables that once selected, forced or overrode kernel
// settings. The child's startup settings must still be the compiled-in
// ones: the kernels a host runs depend on no file and no variable.
func TestHostCacheAndEnvIgnored(t *testing.T) {
	if os.Getenv(settingsChildEnv) != "" {
		assertStartupSettings(t)
		return
	}
	procs := runtime.GOMAXPROCS(0)
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown"
	}
	cache := t.TempDir()
	planted := filepath.Join(cache, "gmreg", fmt.Sprintf("autotune-%s-%d.json", host, procs))
	if err := os.MkdirAll(filepath.Dir(planted), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := fmt.Sprintf(`{"version": 1, "host": %q, "gomaxprocs": %d, "tile_m": 2, "tile_n": 4,
  "small_cutoff": 8192, "serial_cutoff": 256, "partition_grain": 5}`, host, procs)
	if err := os.WriteFile(planted, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, extra := range map[string][]string{
		"cache-file": nil,
		"cache-file+env": {"GMREG_AUTOTUNE=force", "GMREG_PARTITION_GRAIN=7",
			"GMREG_SERIAL_CUTOFF=9"},
	} {
		t.Run(name, func(t *testing.T) {
			env := []string{settingsChildEnv + "=1", "XDG_CACHE_HOME=" + cache,
				fmt.Sprintf("GOMAXPROCS=%d", procs)}
			for _, kv := range os.Environ() {
				if !strings.HasPrefix(kv, "GMREG_") && !strings.HasPrefix(kv, "XDG_CACHE_HOME=") &&
					!strings.HasPrefix(kv, "GOMAXPROCS=") {
					env = append(env, kv)
				}
			}
			cmd := exec.Command(os.Args[0], "-test.run=^TestHostCacheAndEnvIgnored$", "-test.count=1")
			cmd.Env = append(env, extra...)
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("child process with %v: %v\n%s", extra, err, out)
			}
		})
	}
}

func assertStartupSettings(t *testing.T) {
	dm, dn := DefaultTile()
	if mr, nr := TileShape(); mr != dm || nr != dn {
		t.Errorf("TileShape = %dx%d, want DefaultTile %dx%d", mr, nr, dm, dn)
	}
	if SmallCutoff() != 32768 {
		t.Errorf("SmallCutoff = %d, want 32768", SmallCutoff())
	}
	if SerialCutoff() != 64 {
		t.Errorf("SerialCutoff = %d, want 64", SerialCutoff())
	}
	if p := runtime.GOMAXPROCS(0); PartitionGrain() != p {
		t.Errorf("PartitionGrain = %d, want GOMAXPROCS %d", PartitionGrain(), p)
	}
	if TuneSource() != "default" {
		t.Errorf("TuneSource = %q, want default", TuneSource())
	}
}
