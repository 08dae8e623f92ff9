package obs

import "strconv"

// AppendFixed encodes v as a fixed-point decimal with up to six
// fractional digits, trailing zeros trimmed: integer formatting is several
// times cheaper than shortest-float. The journal and the timeline both
// write their timestamps with it, so the two streams' times compare byte
// for byte. Non-finite values and values beyond the fixed-point range
// fall back to shortest-float.
func AppendFixed(b []byte, v float64) []byte {
	neg := v < 0
	if neg {
		v = -v
	}
	if !(v < 9e12) { // NaN, +Inf, or beyond the fixed-point range
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	if neg {
		b = append(b, '-')
	}
	u := uint64(v*1e6 + 0.5)
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
