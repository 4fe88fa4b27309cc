package server

import (
	"net/http"
	"testing"
)

func TestPrefersInline(t *testing.T) {
	for _, tc := range []struct {
		prefer []string
		want   bool
	}{
		{nil, false},
		{[]string{"return=representation"}, true},
		{[]string{"Return = \"Representation\""}, true},
		{[]string{"respond-async, wait=5, return=representation; foo=bar"}, true},
		{[]string{"respond-async", "return=representation"}, true},
		{[]string{"return=minimal"}, false},
		{[]string{"return"}, false},
		{[]string{"handling=lenient; return=representation"}, false},
	} {
		h := http.Header{}
		for _, v := range tc.prefer {
			h.Add("Prefer", v)
		}
		if got := prefersInline(h); got != tc.want {
			t.Errorf("Prefer %q: prefersInline = %v, want %v", tc.prefer, got, tc.want)
		}
	}
}
