// Package xrsl parses and serializes xRSL — the extended Globus Resource
// Specification Language used by NorduGrid/ARC job descriptions (paper §3).
// A job description is a conjunction of relations:
//
//	&(executable=scan.sh)(arguments="chunk" "0")(count=15)
//	 (walltime=330)(runtimeenvironment=APPS/BIO/BLAST)
//	 (inputfiles=(proteome.dat gsiftp://host/chunk0.dat))
//	 (transfertoken=abc123)
//
// Attribute names are case-insensitive. Values are words, quoted strings, or
// parenthesized tuples (used by inputfiles/outputfiles). The typed JobRequest
// view extracts the attributes the Tycoon scheduler plugin maps onto the
// market: walltime -> bid deadline, transfer token -> budget, count ->
// number of concurrent virtual machines.
package xrsl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Value is one xRSL value: either a scalar Word or a Tuple of values.
type Value struct {
	Word  string
	Tuple []Value
}

// IsTuple reports whether the value is a parenthesized tuple.
func (v Value) IsTuple() bool { return v.Tuple != nil }

// String renders the value in xRSL syntax. Quoting escapes only backslash
// and double quote — exactly the escapes the parser understands (the parser
// treats a backslash as protecting the single following byte).
func (v Value) String() string {
	if v.IsTuple() {
		parts := make([]string, len(v.Tuple))
		for i, t := range v.Tuple {
			parts[i] = t.String()
		}
		return "(" + strings.Join(parts, " ") + ")"
	}
	needsQuote := v.Word == ""
	for i := 0; i < len(v.Word) && !needsQuote; i++ {
		c := v.Word[i]
		if c <= ' ' || c == '(' || c == ')' || c == '"' || c == '=' || c == '\\' {
			needsQuote = true
		}
	}
	if needsQuote {
		var b strings.Builder
		b.WriteByte('"')
		for i := 0; i < len(v.Word); i++ {
			c := v.Word[i]
			if c == '"' || c == '\\' {
				b.WriteByte('\\')
			}
			b.WriteByte(c)
		}
		b.WriteByte('"')
		return b.String()
	}
	return v.Word
}

// Relation is one (attribute=value...) clause.
type Relation struct {
	Attr   string // lower-cased attribute name
	Values []Value
}

// Description is a parsed xRSL job description.
type Description struct {
	Relations []Relation
}

// Get returns the values of the first relation with the given attribute
// (case-insensitive) and whether it exists.
func (d *Description) Get(attr string) ([]Value, bool) {
	attr = strings.ToLower(attr)
	for _, r := range d.Relations {
		if r.Attr == attr {
			return r.Values, true
		}
	}
	return nil, false
}

// GetString returns the single scalar value of attr, or "" when absent.
func (d *Description) GetString(attr string) string {
	vs, ok := d.Get(attr)
	if !ok || len(vs) == 0 || vs[0].IsTuple() {
		return ""
	}
	return vs[0].Word
}

// GetInt parses the single scalar value of attr as an integer.
func (d *Description) GetInt(attr string) (int, error) {
	s := d.GetString(attr)
	if s == "" {
		return 0, fmt.Errorf("xrsl: attribute %q missing or not scalar", attr)
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("xrsl: attribute %q: %w", attr, err)
	}
	return n, nil
}

// String serializes the description back to xRSL.
func (d *Description) String() string {
	var b strings.Builder
	b.WriteByte('&')
	for _, r := range d.Relations {
		b.WriteByte('(')
		b.WriteString(r.Attr)
		b.WriteByte('=')
		for i, v := range r.Values {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(v.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// parser state.
type parser struct {
	in  string
	pos int
}

// Parse parses an xRSL description.
func Parse(s string) (*Description, error) {
	p := &parser{in: s}
	p.skipSpace()
	if !p.eat('&') {
		return nil, p.errf("expected '&' at start of description")
	}
	var d Description
	p.skipSpace()
	for !p.done() {
		if !p.eat('(') {
			return nil, p.errf("expected '(' to open a relation")
		}
		rel, err := p.relation()
		if err != nil {
			return nil, err
		}
		d.Relations = append(d.Relations, rel)
		p.skipSpace()
	}
	if len(d.Relations) == 0 {
		return nil, errors.New("xrsl: empty description")
	}
	return &d, nil
}

func (p *parser) relation() (Relation, error) {
	p.skipSpace()
	// Attribute names are ASCII identifiers; treating raw bytes as letters
	// would let invalid UTF-8 through only to be mangled by ToLower.
	attr := p.word(func(r rune) bool {
		return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9') || r == '_' || r == '-'
	})
	if attr == "" {
		return Relation{}, p.errf("expected attribute name")
	}
	p.skipSpace()
	if !p.eat('=') {
		return Relation{}, p.errf("expected '=' after attribute %q", attr)
	}
	var vals []Value
	for {
		p.skipSpace()
		if p.eat(')') {
			break
		}
		if p.done() {
			return Relation{}, p.errf("unterminated relation %q", attr)
		}
		v, err := p.value()
		if err != nil {
			return Relation{}, err
		}
		vals = append(vals, v)
	}
	return Relation{Attr: strings.ToLower(attr), Values: vals}, nil
}

func (p *parser) value() (Value, error) {
	switch {
	case p.peek() == '"':
		s, err := p.quoted()
		if err != nil {
			return Value{}, err
		}
		return Value{Word: s}, nil
	case p.peek() == '(':
		p.pos++
		tuple := []Value{}
		for {
			p.skipSpace()
			if p.eat(')') {
				return Value{Tuple: tuple}, nil
			}
			if p.done() {
				return Value{}, p.errf("unterminated tuple")
			}
			v, err := p.value()
			if err != nil {
				return Value{}, err
			}
			tuple = append(tuple, v)
		}
	default:
		// Value words are opaque byte strings: any byte above 0x20 except
		// the structural characters. (Byte-based on purpose — converting
		// single bytes to runes misclassifies bytes like 0x85 as spaces.)
		w := p.word(func(r rune) bool {
			return r > 0x20 && r != '(' && r != ')' && r != '"'
		})
		if w == "" {
			return Value{}, p.errf("expected a value")
		}
		return Value{Word: w}, nil
	}
}

func (p *parser) quoted() (string, error) {
	if !p.eat('"') {
		return "", p.errf("expected '\"'")
	}
	var b strings.Builder
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		p.pos++
		switch c {
		case '"':
			return b.String(), nil
		case '\\':
			if p.pos >= len(p.in) {
				return "", p.errf("dangling escape")
			}
			b.WriteByte(p.in[p.pos])
			p.pos++
		default:
			b.WriteByte(c)
		}
	}
	return "", p.errf("unterminated string")
}

func (p *parser) word(valid func(rune) bool) string {
	start := p.pos
	for p.pos < len(p.in) && valid(rune(p.in[p.pos])) {
		p.pos++
	}
	return p.in[start:p.pos]
}

// skipSpace consumes every byte at or below 0x20 (space, tabs, newlines,
// form feeds, stray control bytes) so the word scanners and this function
// agree on what separates tokens.
func (p *parser) skipSpace() {
	for p.pos < len(p.in) && p.in[p.pos] <= ' ' {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos >= len(p.in) {
		return 0
	}
	return p.in[p.pos]
}

func (p *parser) eat(c byte) bool {
	if p.peek() == c {
		p.pos++
		return true
	}
	return false
}

func (p *parser) done() bool { return p.pos >= len(p.in) }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("xrsl: %s (at offset %d)", fmt.Sprintf(format, args...), p.pos)
}
