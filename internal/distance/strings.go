package distance

import "strings"

// StringFunc is a distance between two strings.
type StringFunc func(a, b string) float64

// Lexicographic maps each string to a fraction in [0,1) by treating its
// first eight bytes as a base-256 expansion and returns the absolute
// difference, so strings that would sort close together are close. This
// is the "lexicographical difference" of section 3.
func Lexicographic(a, b string) float64 {
	d := lexFrac(a) - lexFrac(b)
	if d < 0 {
		return -d
	}
	return d
}

func lexFrac(s string) float64 {
	var f, scale float64
	scale = 1.0 / 256.0
	for i := 0; i < len(s) && i < 8; i++ {
		f += float64(s[i]) * scale
		scale /= 256
	}
	return f
}

// CharacterWise is the extended Hamming distance: the count of positions
// at which the strings differ, plus the length difference. The paper's
// "character-wise difference".
func CharacterWise(a, b string) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	diff := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			diff++
		}
	}
	diff += len(a) - n + len(b) - n
	return float64(diff)
}

// Substring measures dissimilarity as 1 − 2·LCS/(|a|+|b|) where LCS is
// the length of the longest common substring (contiguous). Two equal
// strings have distance 0; strings sharing nothing have distance 1. Two
// empty strings are identical (0). The paper's "substring difference".
func Substring(a, b string) float64 {
	if a == b {
		return 0
	}
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	lcs := longestCommonSubstring(a, b)
	return 1 - 2*float64(lcs)/float64(len(a)+len(b))
}

func longestCommonSubstring(a, b string) int {
	// Rolling single-row DP, O(|a|·|b|) time, O(|b|) space.
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	best := 0
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// Edit is the Levenshtein edit distance (unit costs).
func Edit(a, b string) float64 {
	if a == b {
		return 0
	}
	la, lb := len(a), len(b)
	if la == 0 {
		return float64(lb)
	}
	if lb == 0 {
		return float64(la)
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return float64(prev[lb])
}

// EditNormalized is Edit scaled by the longer length, mapping to [0,1].
func EditNormalized(a, b string) float64 {
	l := len(a)
	if len(b) > l {
		l = len(b)
	}
	if l == 0 {
		return 0
	}
	return Edit(a, b) / float64(l)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Soundex returns the classic four-character Soundex code of s
// (letter + three digits). Non-ASCII-letter characters are ignored; an
// empty input yields "0000".
func Soundex(s string) string {
	code := make([]byte, 0, 4)
	var lastDigit byte
	for _, r := range strings.ToUpper(s) {
		if r < 'A' || r > 'Z' {
			continue
		}
		d := soundexDigit(byte(r))
		if len(code) == 0 {
			code = append(code, byte(r))
			lastDigit = d
			continue
		}
		// H and W are transparent: they do not reset the run of equal
		// digits. Vowels reset it.
		if r == 'H' || r == 'W' {
			continue
		}
		if d == 0 {
			lastDigit = 0
			continue
		}
		if d != lastDigit {
			code = append(code, '0'+d)
			lastDigit = d
			if len(code) == 4 {
				break
			}
		}
	}
	if len(code) == 0 {
		return "0000"
	}
	for len(code) < 4 {
		code = append(code, '0')
	}
	return string(code)
}

func soundexDigit(c byte) byte {
	switch c {
	case 'B', 'F', 'P', 'V':
		return 1
	case 'C', 'G', 'J', 'K', 'Q', 'S', 'X', 'Z':
		return 2
	case 'D', 'T':
		return 3
	case 'L':
		return 4
	case 'M', 'N':
		return 5
	case 'R':
		return 6
	default:
		return 0 // vowels, H, W, Y
	}
}

// Phonetic is the paper's "phonetic difference": the character-wise
// distance between the Soundex codes of the two strings, so homophones
// ("Smith"/"Smyth") have distance 0.
func Phonetic(a, b string) float64 {
	return CharacterWise(Soundex(a), Soundex(b))
}
