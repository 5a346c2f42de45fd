// Package token implements the syntactic token-type system of the paper
// (§3.1, following Lerman & Minton 2000) and the page tokenizer that
// turns an HTML document into a flat stream of typed tokens.
//
// Each token carries a set of non-mutually-exclusive syntactic types.
// The paper's eight types are: HTML, punctuation, alphanumeric, and —
// refinements of alphanumeric — numeric, alphabetic, capitalized,
// lowercased and allcaps. A token such as "Main" is simultaneously
// ALNUM, ALPHA and CAPITALIZED; the type set forms a small lattice and
// is represented here as a bitmask.
package token

import "strings"

// Type is a bitmask of syntactic token types.
type Type uint16

// The eight syntactic types of §3.1. They are not mutually exclusive:
// an alphabetic token always also carries ALNUM and ALPHA bits.
const (
	HTML        Type = 1 << iota // an HTML tag (opaque)
	Punct                        // punctuation characters only
	Alnum                        // contains letters and/or digits
	Numeric                      // digits (with optional .,- characters)
	Alpha                        // letters only (plus '.' or '-' or '\'')
	Capitalized                  // Alpha starting uppercase, rest lowercase
	Lowercase                    // Alpha, all lowercase
	AllCaps                      // Alpha, all uppercase (len > 1 or single cap letter)
)

// NumTypes is the number of distinct syntactic types (the paper's 8).
const NumTypes = 8

// typeNames in bit order.
var typeNames = [NumTypes]string{
	"HTML", "PUNCT", "ALNUM", "NUMERIC", "ALPHA", "CAPITALIZED", "LOWERCASE", "ALLCAPS",
}

// String renders the type set as a '|'-joined list, e.g. "ALNUM|ALPHA|CAPITALIZED".
func (t Type) String() string {
	if t == 0 {
		return "NONE"
	}
	var parts []string
	for i := 0; i < NumTypes; i++ {
		if t&(1<<i) != 0 {
			parts = append(parts, typeNames[i])
		}
	}
	return strings.Join(parts, "|")
}

// Has reports whether t contains every bit of q.
func (t Type) Has(q Type) bool { return t&q == q }

// Bits returns the indices (0..7) of the set type bits, for use as
// feature indices in the probabilistic model's T_i vector.
func (t Type) Bits() []int {
	var out []int
	for i := 0; i < NumTypes; i++ {
		if t&(1<<i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// Vector returns the token type as the 8-element boolean vector
// (T_i1..T_i8) used by the probabilistic model of §5.1.
func (t Type) Vector() [NumTypes]bool {
	var v [NumTypes]bool
	for i := 0; i < NumTypes; i++ {
		v[i] = t&(1<<i) != 0
	}
	return v
}

// TypeOf computes the syntactic type set for a single word token (not an
// HTML tag). HTML tags get their type from the tokenizer directly.
//
// A word with neither letters nor digits is PUNCT. A word with either
// is ALNUM, and:
//   - NUMERIC when it has digits, no letters, and otherwise only the
//     punctuation of numbers, phone numbers and dates ('.', ',', '-',
//     '(', ')', '/', ':');
//   - ALPHA when it has letters, no digits, and otherwise only the
//     intra-word punctuation of names (period, hyphen, apostrophe), as in
//     "O'Brien", "anti-virus" or "Jr."; an ALPHA word is also ALLCAPS
//     when all its letters are upper case, LOWERCASE when all are lower
//     case, and CAPITALIZED when its first letter is the only upper-case
//     one.
//
// One scan over the bytes sets every bit.
func TypeOf(s string) Type {
	if s == "" {
		return 0
	}
	var (
		hasLetter, hasDigit, hasLower bool
		firstUpper, laterUpper        bool // the first letter is upper case; so is a later one
		notNumeric, notWord           bool // a byte outside the number or the word punctuation
	)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 'a' && c <= 'z':
			hasLetter, hasLower = true, true
		case c >= 'A' && c <= 'Z':
			if hasLetter {
				laterUpper = true
			} else {
				firstUpper = true
			}
			hasLetter = true
		case c >= '0' && c <= '9':
			hasDigit = true
		case c == '.' || c == '-':
		case c == ',' || c == '(' || c == ')' || c == '/' || c == ':':
			notWord = true
		case c == '\'':
			notNumeric = true
		default:
			notNumeric, notWord = true, true
		}
	}
	if !hasLetter && !hasDigit {
		return Punct
	}
	t := Alnum
	if hasDigit && !hasLetter && !notNumeric {
		t |= Numeric
	}
	if hasLetter && !hasDigit && !notWord {
		t |= Alpha
		switch {
		case !hasLower:
			t |= AllCaps
		case !firstUpper && !laterUpper:
			t |= Lowercase
		case firstUpper && !laterUpper:
			t |= Capitalized
		}
	}
	return t
}
