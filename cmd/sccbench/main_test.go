package main

import (
	"strings"
	"testing"
)

func TestParseThreads(t *testing.T) {
	got, err := parseThreads("1, 2,16")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 16}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "a", "0", "-1", "1,,2"} {
		if _, err := parseThreads(bad); err == nil {
			t.Fatalf("parseThreads(%q) accepted", bad)
		}
	}
}

func TestSelectDatasets(t *testing.T) {
	all := []string{"a", "b"}
	if got := selectDatasets("", all); len(got) != 2 {
		t.Fatalf("empty selection %v", got)
	}
	if got := selectDatasets("x,y", all); len(got) != 2 || got[0] != "x" {
		t.Fatalf("explicit selection %v", got)
	}
}

func TestDefaultTo(t *testing.T) {
	if defaultTo("", "d") != "d" || defaultTo("v", "d") != "v" {
		t.Fatal("defaultTo wrong")
	}
}

func TestCheckExp(t *testing.T) {
	for _, name := range experimentNames {
		if err := checkExp(name); err != nil {
			t.Errorf("checkExp(%q) = %v, want nil", name, err)
		}
	}
	for _, bad := range []string{"", "bogus", "dist", "Figure6", "figure6 "} {
		err := checkExp(bad)
		if err == nil {
			t.Errorf("checkExp(%q) accepted an unknown experiment", bad)
			continue
		}
		if !strings.Contains(err.Error(), "figure6|") {
			t.Errorf("checkExp(%q) error %q does not list the valid names", bad, err)
		}
	}
}
