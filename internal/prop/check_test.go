package prop_test

import (
	"testing"

	"bf4/internal/progs"
	"bf4/internal/prop"
)

// TestCheckErrors covers what the P4 parser accepts but the property
// checker rejects: forms properties do not support, malformed builtin
// calls and chained comparisons, each with its position.
func TestCheckErrors(t *testing.T) {
	src, _ := progs.GeneratePropSwitch(2, 1)
	cases := []struct{ pred, want string }{
		{"((bit<8>)hdr.ipv4.ttl == 1)", "x.props:1:11: a cast is not supported in properties"},
		{"((hit(fwd_0) ? 8w1 : 8w2) == 8w1)", "x.props:1:23: ?: is not supported in properties"},
		{"(hdr.ipv4.ttl[0] == 1w1)", "x.props:1:23: indexing is not supported in properties"},
		{"(hdr.ipv4.ttl * 2 == 8w1)", "x.props:1:24: operator * is not supported in properties"},
		{"(hdr.ipv4.ttl / 2 == 8w1)", "x.props:1:24: operator / is not supported in properties"},
		{"(hdr.ipv4.ttl % 2 == 8w1)", "x.props:1:24: operator % is not supported in properties"},
		{"(hdr.ipv4.ttl << 1 == 8w1)", "x.props:1:24: operator << is not supported in properties"},
		{"(hdr.ipv4.ttl >> 1 == 8w1)", "x.props:1:24: operator >> is not supported in properties"},
		{"(hdr.ipv4.ttl ++ hdr.ipv4.ttl == 16w1)", "x.props:1:24: operator ++ is not supported in properties"},
		{"(hdr.ipv4.ttl == 8s7)", "x.props:1:27: a signed literal is not supported in properties"},
		{"(hdr.ipv4.ttl == default)", `x.props:1:27: "default" is not supported in properties`},
		{"(foo(hdr.ipv4.ttl))", `x.props:1:11: "foo(hdr.ipv4.ttl)" is not supported in properties`},
		{"(hit() || hit(fwd_0, fwd_1))", "x.props:1:11: hit(...) wants one table name"},
		{"(hdr.ipv4.ttl == 1 == 2)", "x.props:1:29: operands of == have types bool and int, want bit-vectors of one width"},
		{"(hit(fwd_0) == hit(fwd_1) == 8w1)", "x.props:1:36: operands of == have types bool and bit<8>, want bit-vectors of one width"},
	}
	for _, c := range cases {
		props, err := prop.ParseSpecFile("x.props", []byte("@assert  "+c.pred))
		if err != nil {
			t.Errorf("%s: parse: %v", c.pred, err)
			continue
		}
		if _, err := build(t, "x.p4", src, props); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.pred, err, c.want)
		}
	}
}
