package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"runtime"
	"strings"
)

// Record is one measured number: Metric of Case (a dataset, mode,
// scenario, crash point or mix), in Unit.
type Record struct {
	Case   string  `json:"case"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit,omitempty"`
}

// RecordSet is one suite: an experiment's records together with the Go version,
// host and run parameters they were measured under. A results file
// (BENCH_scc.json, BENCH_serve.json) is a JSON object mapping suite
// name — figure6, engine, multipivot, serve, recover, incr — to its
// RecordSet; each experiment replaces only its own suite.
type RecordSet struct {
	GoVersion string         `json:"go_version"`
	Host      Host           `json:"host"`
	Params    map[string]any `json:"params"`
	Records   []Record       `json:"records"`
}

// Host records the parallelism of the machine a suite was measured
// on, so numbers from hosts with different core counts are not
// compared as like for like.
type Host struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// CurrentHost returns this process's runtime.NumCPU and GOMAXPROCS.
func CurrentHost() Host {
	return Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// newRecordSet stamps params and recs with this process's Go version and
// host: every report is turned into a record set by the process that
// measured it.
func newRecordSet(params map[string]any, recs []Record) RecordSet {
	return RecordSet{GoVersion: runtime.Version(), Host: CurrentHost(), Params: params, Records: recs}
}

// ReadRecordSets decodes a results file.
func ReadRecordSets(path string) (map[string]RecordSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var suites map[string]RecordSet
	if err := json.Unmarshal(b, &suites); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return suites, nil
}

// WriteRecordSet replaces suite name in the results file at path, keeping
// every other suite, and creates the file if it does not exist.
func WriteRecordSet(path, name string, s RecordSet) error {
	suites, err := ReadRecordSets(path)
	if errors.Is(err, fs.ErrNotExist) {
		suites, err = map[string]RecordSet{}, nil
	}
	if err != nil {
		return err
	}
	suites[name] = s
	b, err := json.MarshalIndent(suites, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// rowRecords emits every number in row, a struct, as a record of case
// c: the metric is the field's json tag name (its Go name if untagged)
// and the unit its unit tag ("count" if untagged). A boolean records
// as 1 or 0, a nil pointer not at all, and a nested struct — a
// detection's metrics snapshot — contributes its own fields.
func rowRecords(c string, row any) []Record {
	v := reflect.ValueOf(row)
	var out []Record
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if f.Kind() == reflect.Pointer {
			if f.IsNil() {
				continue
			}
			f = f.Elem()
		}
		var x float64
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			x = float64(f.Int())
		case reflect.Uint64:
			x = float64(f.Uint())
		case reflect.Float64:
			x = f.Float()
		case reflect.Bool:
			x = bit(f.Bool())
		case reflect.Struct:
			out = append(out, rowRecords(c, f.Interface())...)
			continue
		default:
			continue
		}
		name, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if name == "" {
			name = sf.Name
		}
		unit := sf.Tag.Get("unit")
		if unit == "" {
			unit = "count"
		}
		out = append(out, Record{c, name, x, unit})
	}
	return out
}

// bit encodes a boolean outcome as a record value: 1 true, 0 false.
func bit(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
