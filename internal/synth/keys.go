package synth

import (
	"strconv"
	"strings"
)

// FormatKey spells a record or object key without fmt, since a warm pass
// formats and parses hundreds of thousands of them: pattern as is, but
// each run of '#' is the next of ids, zero-padded to the run's length as
// %0Nd pads it (a lone '#' is %d; a padded id is never negative).
func FormatKey(pattern string, ids ...int) string {
	b := make([]byte, 0, 32)
	for i := 0; i < len(pattern); i++ {
		if pattern[i] != '#' {
			b = append(b, pattern[i])
			continue
		}
		for x := 10; i+1 < len(pattern) && pattern[i+1] == '#'; i, x = i+1, x*10 {
			if ids[0] < x {
				b = append(b, '0')
			}
		}
		b, ids = strconv.AppendInt(b, int64(ids[0]), 10), ids[1:]
	}
	return string(b)
}

// ScanKey reads back into ids what FormatKey(pattern, ...) wrote. A field
// is its whole digit run (s1000 under s### is 1000; fmt's s%03d reads
// 100), and a spelling FormatKey never writes is refused: too few digits,
// a leading zero past the width, a sign on a padded field, other bytes.
func ScanKey(key, pattern string, ids ...*int) bool {
	for {
		i := strings.IndexByte(pattern, '#')
		if i < 0 {
			return key == pattern
		}
		rest, ok := strings.CutPrefix(key, pattern[:i])
		w := len(pattern) - i - len(strings.TrimLeft(pattern[i:], "#"))
		digits, neg := strings.CutPrefix(rest, "-")
		n := len(digits) - len(strings.TrimLeft(digits, "0123456789"))
		x, err := strconv.Atoi(rest[:len(rest)-len(digits)+n])
		if !ok || err != nil || n < w || neg && w > 1 || (n > w || neg) && digits[0] == '0' {
			return false
		}
		*ids[0], ids, key, pattern = x, ids[1:], digits[n:], pattern[i+w:]
	}
}
