package obs

import (
	"math"
	"strconv"
)

// AppendFixed encodes v as a fixed-point decimal with up to six
// fractional digits, trailing zeros trimmed: integer formatting is several
// times cheaper than shortest-float. The journal and the timeline both
// write their timestamps with it, so the two streams' times compare byte
// for byte. Non-finite values and values from 2e9 up fall back to
// shortest-float: below 2e9 the micro-units fit in 2^51, so parsing the
// text and encoding it again gives the same text, which is not so for
// every value above.
func AppendFixed(b []byte, v float64) []byte {
	a := math.Abs(v)
	if !(a < 2e9) { // NaN, ±Inf, or beyond the fixed-point range
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	u := uint64(a*1e6 + 0.5)
	if v < 0 && u != 0 { // no "-0": it would read back as 0
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, u/1e6, 10)
	if fp := u % 1e6; fp != 0 {
		var tmp [7]byte
		tmp[0] = '.'
		for i := 6; i >= 1; i-- {
			tmp[i] = byte('0' + fp%10)
			fp /= 10
		}
		n := 7
		for tmp[n-1] == '0' {
			n--
		}
		b = append(b, tmp[:n]...)
	}
	return b
}
