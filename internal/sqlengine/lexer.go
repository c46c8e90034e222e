// Package sqlengine is the SQL database substrate: a lexer, parser,
// logical planner with a rule-based optimizer, and one vectorized
// executor whose ModeRow crosses to a UDF once per row, with a UDF
// registry bridged through the ffi package. The engine profiles in
// package engines configure it to mimic the execution models of the
// systems the paper evaluates.
package sqlengine

import (
	"fmt"
	"strings"
)

type sqlTokKind uint8

const (
	sTokEOF sqlTokKind = iota
	sTokIdent
	sTokKeyword
	sTokNumber
	sTokString
	sTokOp
)

type sqlToken struct {
	Kind sqlTokKind
	Text string // keywords are upper-cased, idents keep original case
	Pos  int
}

var sqlKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "AS": true, "WITH": true, "UNION": true,
	"ALL": true, "DISTINCT": true, "AND": true, "OR": true, "NOT": true,
	"IN": true, "IS": true, "NULL": true, "BETWEEN": true, "CASE": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "JOIN": true,
	"INNER": true, "LEFT": true, "OUTER": true, "CROSS": true, "ON": true,
	"HAVING": true, "UPDATE": true, "SET": true, "CREATE": true,
	"TABLE": true, "INSERT": true, "INTO": true, "VALUES": true,
	"ASC": true, "DESC": true, "LIKE": true, "EXPLAIN": true, "TRUE": true,
	"FALSE": true, "OFFSET": true, "DELETE": true, "FUNCTION": true,
	"RETURNS": true, "LANGUAGE": true, "COST": true, "DROP": true,
	"EXCEPT": true, "INTERSECT": true, "USING": true, "CAST": true,
}

// lexSQL tokenizes a SQL statement.
func lexSQL(src string) ([]sqlToken, error) {
	var toks []sqlToken
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-': // line comment
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			j := strings.Index(src[i+2:], "*/")
			if j < 0 {
				return nil, fmt.Errorf("sql: unterminated comment at %d", i)
			}
			i += j + 4
		case isSQLIdentStart(c):
			start := i
			for i < n && isSQLIdentCont(src[i]) {
				i++
			}
			word := src[start:i]
			up := strings.ToUpper(word)
			if sqlKeywords[up] {
				toks = append(toks, sqlToken{Kind: sTokKeyword, Text: up, Pos: start})
			} else {
				toks = append(toks, sqlToken{Kind: sTokIdent, Text: word, Pos: start})
			}
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			start := i
			seenDot := false
			for i < n {
				c := src[i]
				if c >= '0' && c <= '9' {
					i++
				} else if c == '.' && !seenDot {
					seenDot = true
					i++
				} else if (c == 'e' || c == 'E') && i+1 < n &&
					(src[i+1] >= '0' && src[i+1] <= '9' || src[i+1] == '-' || src[i+1] == '+') {
					i += 2
					for i < n && src[i] >= '0' && src[i] <= '9' {
						i++
					}
					break
				} else {
					break
				}
			}
			toks = append(toks, sqlToken{Kind: sTokNumber, Text: src[start:i], Pos: start})
		case c == '\'':
			i++
			var sb strings.Builder
			for {
				if i >= n {
					return nil, fmt.Errorf("sql: unterminated string literal")
				}
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			toks = append(toks, sqlToken{Kind: sTokString, Text: sb.String(), Pos: i})
		case c == '"': // quoted identifier
			i++
			start := i
			for i < n && src[i] != '"' {
				i++
			}
			if i >= n {
				return nil, fmt.Errorf("sql: unterminated quoted identifier")
			}
			toks = append(toks, sqlToken{Kind: sTokIdent, Text: src[start:i], Pos: start})
			i++
		default:
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				toks = append(toks, sqlToken{Kind: sTokOp, Text: two, Pos: i})
				i += 2
				continue
			}
			switch c {
			case '(', ')', ',', '*', '+', '-', '/', '%', '=', '<', '>', '.', ';':
				toks = append(toks, sqlToken{Kind: sTokOp, Text: string(c), Pos: i})
				i++
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at %d", string(c), i)
			}
		}
	}
	toks = append(toks, sqlToken{Kind: sTokEOF, Pos: n})
	return toks, nil
}

func isSQLIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isSQLIdentCont(c byte) bool {
	return isSQLIdentStart(c) || c >= '0' && c <= '9'
}
