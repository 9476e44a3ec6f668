package main

import (
	"flag"
	"strings"
	"testing"
)

func TestCheckSubFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // error substring; "" = accepted
	}{
		{nil, ""},
		{[]string{"-motion", "-cold"}, ""},
		{[]string{"-cold"}, "-cold needs -motion"},
		{[]string{"-cold=false"}, ""},
		{[]string{"-gateway"}, "-gateway needs -throughput"},
		{[]string{"-throughput", "-gateway", "-labs", "4", "-json", "x.json"}, ""},
		{[]string{"-throughput", "-labs", "4"}, "-labs needs -gateway"},
		{[]string{"-n", "200"}, "-n needs -campaign"},
		{[]string{"-campaign", "-n", "200", "-workers", "2", "-json", "x.json"}, ""},
		{[]string{"-threshold", "0.2"}, "-threshold needs -compare"},
		{[]string{"-motion", "-json", "x.json"}, ""},
		{[]string{"-motion", "-cold", "-json", "x.json"}, "-json needs"},
		{[]string{"-table", "5", "-json", "x.json"}, "-json needs"},
		{[]string{"-json", ""}, ""},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("rabiteval", flag.ContinueOnError)
		for _, b := range []string{"cold", "motion", "gateway", "throughput", "campaign", "compare"} {
			fs.Bool(b, false, "")
		}
		fs.Int("labs", 4, "")
		fs.Int("n", 10000, "")
		fs.Int("workers", 0, "")
		fs.Int("table", 0, "")
		fs.Float64("threshold", 0.5, "")
		fs.String("json", "", "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := checkSubFlags(givenFlags(fs))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
