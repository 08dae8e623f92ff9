package obs

import (
	"math"
	"testing"
)

func TestAppendFixed(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{1, "1"},
		{-2.5, "-2.5"},
		{24.000001, "24.000001"},
		{1999999999.999999, "1999999999.999999"},
		{4315579696.690971, "4.315579696690971e+09"},
		{1e13, "1e+13"},
		{-1e13, "-1e+13"},
		{-1e-9, "0"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
	}
	for _, c := range cases {
		if got := string(AppendFixed(nil, c.v)); got != c.want {
			t.Errorf("AppendFixed(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
