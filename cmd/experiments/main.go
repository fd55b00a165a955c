// Command experiments turns `go test -bench -benchmem` output, read on
// standard input, into the recorded benchmark files and the paper's
// tables. It runs nothing itself: every measurement is a benchmark in a
// _test.go file.
//
//	make bench-json
//	go test -run '^$' -bench 'Table1|Fig' -benchmem . | go run ./cmd/experiments
//
// Lines repeated by -count fold into one row per benchmark name and
// GOMAXPROCS (the -N suffix go test prints), holding the median, min and
// max of each unit, so -cpu sweeps stay distinct.
//
// The sub-benchmarks of BenchmarkNet, BenchmarkABI, BenchmarkProof and
// BenchmarkLedger become the rows of BENCH_net.json, BENCH_abi.json,
// BENCH_proof.json and BENCH_ledger.json in the current directory, under
// the goos, goarch and cpu lines go test printed. Before it replaces a
// BENCH file that exists, it prints every row and unit whose new median
// lies outside that file's min–max (make bench-compare uses this to
// compare the working tree with HEAD). Every other top-level
// benchmark is printed as a table: a row is the name minus its last
// element (plus -N when the table's rows ran at different GOMAXPROCS), a
// column is that last element, and a cell is the median of the first
// custom unit the benchmark reports, or of ns/op if it reports none.
//
// A line that is none of go test's header, result or summary lines is an
// error, so a failed benchmark cannot drop a row silently.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// groups maps each recorded top-level benchmark to its BENCH file.
var groups = map[string]string{
	"BenchmarkNet":    "BENCH_net.json",
	"BenchmarkABI":    "BENCH_abi.json",
	"BenchmarkProof":  "BENCH_proof.json",
	"BenchmarkLedger": "BENCH_ledger.json",
}

// stat summarizes one unit of a row over its runs.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// row is one benchmark name at one GOMAXPROCS, folded over its runs.
type row struct {
	Name  string          `json:"name"`
	Procs int             `json:"procs"`
	Runs  int             `json:"runs"`
	Units map[string]stat `json:"units"`

	path  []string             // name split at "/", top-level first
	order []string             // units in the order go test printed them
	vals  map[string][]float64 // every run's value, per unit
}

// benchFile is the schema of a BENCH_<group>.json file.
type benchFile struct {
	Goos   string `json:"goos"`
	Goarch string `json:"goarch"`
	CPU    string `json:"cpu"`
	Rows   []*row `json:"rows"`
}

func main() {
	if err := run(os.Stdin, os.Stdout, "."); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run converts the benchmark output on in, writing BENCH files into dir
// and tables to out.
func run(in io.Reader, out io.Writer, dir string) error {
	files := map[string]*benchFile{}
	var tables []*row
	byKey := map[string]*row{}
	header := map[string]string{}
	sc := bufio.NewScanner(in)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		f := strings.Fields(line)
		if k, v, ok := strings.Cut(line, ": "); ok && (k == "goos" || k == "goarch" || k == "cpu" || k == "pkg") {
			header[k] = v
			continue
		}
		if len(f) == 0 || line == "PASS" || f[0] == "ok" {
			continue
		}
		if !strings.HasPrefix(f[0], "Benchmark") || len(f) < 4 || len(f)%2 != 0 {
			return fmt.Errorf("line %d: not a benchmark result: %q", n, line)
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			return fmt.Errorf("line %d: iteration count: %v", n, err)
		}
		r := byKey[f[0]]
		if r == nil {
			r = newRow(f[0])
			byKey[f[0]] = r
			if name, ok := groups[r.path[0]]; ok {
				bf := files[name]
				if bf == nil {
					bf = &benchFile{Goos: header["goos"], Goarch: header["goarch"], CPU: header["cpu"]}
					files[name] = bf
				}
				r.Name = strings.Join(r.path[1:], "/")
				bf.Rows = append(bf.Rows, r)
			} else {
				tables = append(tables, r)
			}
		}
		r.Runs++
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return fmt.Errorf("line %d: %s: %v", n, f[i+1], err)
			}
			if r.vals[f[i+1]] == nil {
				r.order = append(r.order, f[i+1])
			}
			r.vals[f[i+1]] = append(r.vals[f[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, r := range byKey {
		r.fold()
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		if err := compare(out, path, files[name]); err != nil {
			return err
		}
		blob, err := json.MarshalIndent(files[name], "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	return printTables(out, tables)
}

// compare prints every row and unit of bf whose median lies outside the
// min–max of the same row and unit in the BENCH file at path, if there is
// one, and how many units that file has no range for.
func compare(out io.Writer, path string, bf *benchFile) error {
	blob, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var prev benchFile
	if err := json.Unmarshal(blob, &prev); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	type key struct {
		name  string
		procs int
	}
	old := map[key]map[string]stat{}
	for _, r := range prev.Rows {
		old[key{r.Name, r.Procs}] = r.Units
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	outside, unranged, total := 0, 0, 0
	for _, r := range bf.Rows {
		name := r.Name
		if r.Procs != 1 {
			name += "-" + strconv.Itoa(r.Procs)
		}
		for _, unit := range r.order {
			total++
			now := r.Units[unit].Median
			was, ok := old[key{r.Name, r.Procs}][unit]
			switch {
			case !ok:
				unranged++
			case now < was.Min || now > was.Max:
				outside++
				fmt.Fprintf(tw, "  %s\t%s\t%s\t[%s – %s]\n", name, unit, num(now), num(was.Min), num(was.Max))
			}
		}
	}
	fmt.Fprintf(out, "%s: %d of %d units outside the previous min–max, %d with no previous range\n",
		filepath.Base(path), outside, total, unranged)
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err = fmt.Fprintln(out)
	return err
}

// newRow parses a benchmark name as go test prints it: a trailing -N is
// GOMAXPROCS, absent when it is 1.
func newRow(printed string) *row {
	name, procs := printed, 1
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	return &row{Name: name, Procs: procs, path: strings.Split(name, "/"), vals: map[string][]float64{}}
}

// fold computes each unit's median, min and max over the runs.
func (r *row) fold() {
	r.Units = map[string]stat{}
	for unit, vs := range r.vals {
		sort.Float64s(vs)
		m := len(vs) / 2
		med := vs[m]
		if len(vs)%2 == 0 {
			med = (vs[m-1] + vs[m]) / 2
		}
		r.Units[unit] = stat{Median: med, Min: vs[0], Max: vs[len(vs)-1]}
	}
}

// cell is the value a table shows for the row.
func (r *row) cell() string {
	unit := "ns/op"
	for _, u := range r.order {
		if u != "ns/op" && u != "B/op" && u != "allocs/op" {
			unit = u
			break
		}
	}
	s, ok := r.Units[unit]
	if !ok {
		return "-"
	}
	return num(s.Median) + " " + unit
}

// num formats a value to four significant digits, or to a whole number
// from 1000 up.
func num(v float64) string {
	if v >= 1000 || v <= -1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// printTables prints one table per top-level benchmark, in the order the
// benchmarks ran.
func printTables(out io.Writer, rows []*row) error {
	type table struct {
		title      string
		rows, cols []string
		cells      map[[2]string]string
	}
	var order []*table
	byTitle := map[string]*table{}
	seen := map[string]bool{}
	procs := map[string]int{} // per table: its rows' GOMAXPROCS, or -1 if mixed
	for _, r := range rows {
		if p, ok := procs[r.path[0]]; !ok {
			procs[r.path[0]] = r.Procs
		} else if p != r.Procs {
			procs[r.path[0]] = -1
		}
	}
	for _, r := range rows {
		t := byTitle[r.path[0]]
		if t == nil {
			t = &table{title: r.path[0], cells: map[[2]string]string{}}
			byTitle[t.title] = t
			order = append(order, t)
		}
		last := len(r.path) - 1
		label := strings.Join(r.path[1:max(1, last)], "/")
		if procs[t.title] < 0 {
			label += "-" + strconv.Itoa(r.Procs)
		}
		col := r.path[last]
		if !seen[t.title+"\x00r"+label] {
			seen[t.title+"\x00r"+label] = true
			t.rows = append(t.rows, label)
		}
		if !seen[t.title+"\x00c"+col] {
			seen[t.title+"\x00c"+col] = true
			t.cols = append(t.cols, col)
		}
		t.cells[[2]string{label, col}] = r.cell()
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for i, t := range order {
		if i > 0 {
			fmt.Fprintln(tw)
		}
		fmt.Fprintf(tw, "%s\n\t%s\n", t.title, strings.Join(t.cols, "\t"))
		for _, label := range t.rows {
			fmt.Fprint(tw, label)
			for _, col := range t.cols {
				c, ok := t.cells[[2]string{label, col}]
				if !ok {
					c = "-"
				}
				fmt.Fprint(tw, "\t", c)
			}
			fmt.Fprintln(tw)
		}
	}
	return tw.Flush()
}
