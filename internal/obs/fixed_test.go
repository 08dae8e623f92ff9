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
		{1e13, "1e+13"},
		{math.Inf(1), "+Inf"},
	}
	for _, c := range cases {
		if got := string(AppendFixed(nil, c.v)); got != c.want {
			t.Errorf("AppendFixed(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
