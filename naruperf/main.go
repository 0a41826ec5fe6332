// Command naruperf is the end-to-end benchmark of the naru estimator service.
//
//	bash naruperf/run.sh --workload dmv-open --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it runs one workload against the program from outside:
// it generates the data from the seed, trains with `naru train`, starts the
// server in its own process, drives it over loopback HTTP and checks every
// answer. With --trace 1 it runs the same workload in process, times the
// calls into each layer through wrappers kept in this directory, and prints
// the per-layer table. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// e2eUnits names every end-to-end metric, with its unit.
var e2eUnits = map[string]string{
	"setup_s": "s", "p50_ms": "ms", "saturation_qps": "queries/s", "qerror_p50": "ratio",
	"model_bytes": "bytes", "rss_mb": "MB", "refresh_s": "s",
}

var workloads = map[string]func(*run) error{
	"dmv-open":  (*run).dmvOpen,
	"join-open": (*run).joinOpen,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve-join" {
		if err := serveJoin(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "serve-join:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(); err != nil {
		fmt.Fprintln(os.Stderr, "naruperf:", err)
		os.Exit(1)
	}
}

func benchMain() error {
	workload := flag.String("workload", "", "dmv-open | join-open")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced in-process run and prints per-layer metrics")
	root := flag.String("root", ".", "repository checkout")
	naruBin := flag.String("naru", "", "naru binary (built by run.sh)")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be positive")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	work := filepath.Join(*root, ".bench_build", "work", fmt.Sprintf("%s-s%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r := &run{dir: work, seed: *seed, span: time.Duration(*seconds) * time.Second,
		naru: *naruBin, self: self, ops: map[string][]opResult{}, obs: map[string][]float64{},
		metrics: map[string]float64{}}

	printFingerprint(*root)
	var units map[string]string
	if *trace == 1 {
		units = layerUnits
		if err := r.traced(*workload); err != nil {
			return err
		}
	} else {
		units = e2eUnits
		if err := fn(r); err != nil {
			return err
		}
	}
	return r.report(units)
}

// report prints the phases, findings and metrics, then the result line.
func (r *run) report(units map[string]string) error {
	attempted, failed := 0, 0
	fmt.Println("phase            attempted succeeded failed  late_p50_ms late_max_ms")
	for name, vs := range r.obs {
		r.metrics[name] = median(vs)
	}
	for _, name := range r.phases {
		p, _ := summarise(name, r.ops[name])
		fmt.Printf("%-16s %9d %9d %6d %12.3f %11.3f\n", p.Name, p.Attempted, p.Succeeded, p.Failed, p.LateP50Ms, p.LateMaxMs)
		if p.FirstErr != "" {
			fmt.Printf("  first failure: %s\n", p.FirstErr)
		}
		attempted += p.Attempted
		failed += p.Failed
	}
	for _, f := range r.faults {
		fmt.Println("CHECK FAILED:", f)
	}
	names := make([]string, 0, len(units))
	for n := range units {
		names = append(names, n)
	}
	sort.Strings(names)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	correct := len(r.faults) == 0
	for _, n := range names {
		v, ok := r.metrics[n]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Printf("metric %s was not measured\n", n)
			correct = false
			continue
		}
		fmt.Printf("%-26s %14.4f %s\n", n, v, units[n])
		out[n] = value{v, units[n]}
	}
	if attempted == 0 {
		attempted = 1 // the traced run checks its estimates and counts that as one operation
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printFingerprint states the machine and the source the numbers belong to.
func printFingerprint(root string) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	fmt.Printf("fingerprint: cpu=%q numcpu=%d gomaxprocs=%d go=%s commit=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceID(root))
}

// sourceID is the git commit when the checkout is a repository of its own,
// else a digest of the Go sources and module files it holds.
func sourceID(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
			if b, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}
