package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// steady runs --workload, or every workload when none is given,
// opts.steady times, with seeds opts.seed, opts.seed+1, ..., each as a
// child process of this binary, and prints every end-to-end metric's
// median, quartiles and spread (quartile distance over median) against
// its bound in BENCHMARK.json. A spread under a third of the bound is
// steady.
func steady(opts options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	list := opts.bench.workloadNames()
	if opts.workload != "" {
		list = []string{opts.workload}
	}
	fmt.Printf("%-18s %-15s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, w := range list {
		values := map[string][]float64{}
		for i := 0; i < opts.steady; i++ {
			seed := opts.seed + int64(i)
			res, steal, err := runChild(exe, w, seed, opts.seconds)
			if err != nil {
				return err
			}
			line := fmt.Sprintf("perfbench: %s seed %d: %d ops, host steal %.3f:", w, seed, res.Attempted, steal)
			for _, d := range opts.bench.EndToEnd {
				values[d.Name] = append(values[d.Name], res.Metrics[d.Name].Value)
				line += fmt.Sprintf(" %s=%.5g", d.Name, res.Metrics[d.Name].Value)
			}
			fmt.Fprintln(os.Stderr, line)
		}
		for _, d := range opts.bench.EndToEnd {
			vs := values[d.Name]
			med := median(vs)
			q1, q3 := med, med
			if len(vs) > 1 {
				q1, q3 = quartiles(vs)
			}
			spread := (q3 - q1) / med
			verdict := "steady"
			switch {
			case spread > d.Bound:
				verdict = "WIDER THAN BOUND"
			case spread > d.Bound/3:
				verdict = "within bound, over a third of it"
			}
			fmt.Printf("%-18s %-15s %12.5g %12.5g %12.5g %8.4f %6.3f  %s\n", w, d.Name, q1, med, q3, spread, d.Bound, verdict)
		}
	}
	return nil
}

// runChild runs one workload and parses its result line, and the
// host's steal share from the report before it.
func runChild(exe, workload string, seed int64, seconds int) (result, float64, error) {
	var res result
	var rep struct {
		Details struct {
			Steal float64 `json:"host_steal_share"`
		} `json:"details"`
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, 0, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	out = bytes.TrimSpace(out)
	last := bytes.LastIndexByte(out, '\n')
	if err := json.Unmarshal(out[last+1:], &res); err != nil {
		return res, 0, fmt.Errorf("%s seed %d: parse result: %w", workload, seed, err)
	}
	if !res.Correct {
		return res, 0, fmt.Errorf("%s seed %d: run was not correct", workload, seed)
	}
	if err := json.Unmarshal(out[:max(last, 0)], &rep); err != nil {
		return res, 0, fmt.Errorf("%s seed %d: parse report: %w", workload, seed, err)
	}
	return res, rep.Details.Steal, nil
}
