// Package token defines the lexical tokens of the P4-16 subset accepted by
// bf4's frontend, plus source positions used in diagnostics.
package token

import "fmt"

// Kind identifies a token class.
type Kind int

// Token kinds.
const (
	ILLEGAL Kind = iota
	EOF

	IDENT  // ipv4_lpm
	INT    // 10, 0xff, 8w255 (width-prefixed)
	STRING // "..." (annotations only)

	// Operators and punctuation.
	LPAREN    // (
	RPAREN    // )
	LBRACE    // {
	RBRACE    // }
	LBRACKET  // [
	RBRACKET  // ]
	LANGLE    // <
	RANGLE    // >
	COMMA     // ,
	SEMICOLON // ;
	COLON     // :
	DOT       // .
	ASSIGN    // =
	AT        // @
	QUESTION  // ?

	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %
	AMP     // &
	PIPE    // |
	CARET   // ^
	TILDE   // ~
	NOT     // !

	SHL // <<
	SHR // >>
	EQ  // ==
	NEQ // !=
	LEQ // <=
	GEQ // >=
	AND // &&
	OR  // ||

	PLUSPLUS // ++ (concatenation)
	IMPLIES  // -> (implication; @assert/@assume properties only)

	// Keywords.
	KwAction
	KwActions
	KwApply
	KwBit
	KwBool
	KwConst
	KwControl
	KwDefault
	KwDefaultAction
	KwElse
	KwEntries
	KwEnum
	KwError
	KwExit
	KwFalse
	KwHeader
	KwIf
	KwIn
	KwInout
	KwKey
	KwOut
	KwPackage
	KwParser
	KwRegister
	KwReturn
	KwSize
	KwState
	KwStruct
	KwSwitch
	KwTable
	KwTransition
	KwTrue
	KwTypedef
	KwVarbit
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF", IDENT: "IDENT", INT: "INT", STRING: "STRING",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", LBRACKET: "[",
	RBRACKET: "]", LANGLE: "<", RANGLE: ">", COMMA: ",", SEMICOLON: ";",
	COLON: ":", DOT: ".", ASSIGN: "=", AT: "@", QUESTION: "?", PLUS: "+",
	MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%", AMP: "&", PIPE: "|",
	CARET: "^", TILDE: "~", NOT: "!", SHL: "<<", SHR: ">>", EQ: "==",
	NEQ: "!=", LEQ: "<=", GEQ: ">=", AND: "&&", OR: "||", PLUSPLUS: "++",
	IMPLIES:  "->",
	KwAction: "action", KwActions: "actions", KwApply: "apply", KwBit: "bit",
	KwBool: "bool", KwConst: "const", KwControl: "control",
	KwDefault: "default", KwDefaultAction: "default_action", KwElse: "else",
	KwEntries: "entries", KwEnum: "enum", KwError: "error", KwExit: "exit",
	KwFalse: "false", KwHeader: "header", KwIf: "if", KwIn: "in",
	KwInout: "inout", KwKey: "key", KwOut: "out", KwPackage: "package",
	KwParser: "parser", KwRegister: "register", KwReturn: "return",
	KwSize: "size", KwState: "state", KwStruct: "struct", KwSwitch: "switch",
	KwTable: "table", KwTransition: "transition", KwTrue: "true",
	KwTypedef: "typedef", KwVarbit: "varbit",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Precedence is the binding strength of a binary operator, higher
// binding tighter, or 0 for any other kind. Implication (`->`,
// properties only) binds loosest and associates to the right.
func (k Kind) Precedence() int {
	switch k {
	case IMPLIES:
		return 1
	case OR:
		return 2
	case AND:
		return 3
	case EQ, NEQ:
		return 4
	case LANGLE, RANGLE, LEQ, GEQ:
		return 5
	case PIPE:
		return 6
	case CARET:
		return 7
	case AMP:
		return 8
	case SHL, SHR:
		return 9
	case PLUS, MINUS, PLUSPLUS:
		return 10
	case STAR, SLASH, PERCENT:
		return 11
	default:
		return 0
	}
}

// Keywords maps keyword spellings to kinds.
var Keywords = map[string]Kind{
	"action": KwAction, "actions": KwActions, "apply": KwApply,
	"bit": KwBit, "bool": KwBool, "const": KwConst, "control": KwControl,
	"default": KwDefault, "default_action": KwDefaultAction, "else": KwElse,
	"entries": KwEntries, "enum": KwEnum, "error": KwError, "exit": KwExit,
	"false": KwFalse, "header": KwHeader, "if": KwIf, "in": KwIn,
	"inout": KwInout, "key": KwKey, "out": KwOut, "package": KwPackage,
	"parser": KwParser, "register": KwRegister, "return": KwReturn,
	"size": KwSize, "state": KwState, "struct": KwStruct,
	"switch": KwSwitch, "table": KwTable, "transition": KwTransition,
	"true": KwTrue, "typedef": KwTypedef, "varbit": KwVarbit,
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position is set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a lexeme with its kind and position. For INT tokens, Lit holds
// the raw spelling (including any width prefix such as "8w255").
type Token struct {
	Kind Kind
	Lit  string
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, STRING:
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}
