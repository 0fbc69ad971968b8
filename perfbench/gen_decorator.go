//go:build ignore

// gen_decorator writes decorator_gen.go: one struct type per subset of the
// optional policy extensions, so the timing decorator implements exactly the
// extensions the wrapped policy does. Run with `go generate` in perfbench/.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

// hooks lists the extensions in mask-bit order (see extMask).
var hooks = []struct{ mask, typ, val string }{
	{"mInit", "initHook", "i"},
	{"mRouter", "routerHook", "r"},
	{"mAdmitter", "admitterHook", "a"},
	{"mScheduler", "schedulerHook", "s"},
	{"mSLOTunable", "sloTunableHook", "t"},
	{"mGovTunable", "govTunableHook", "g"},
}

func main() {
	var b bytes.Buffer
	b.WriteString("// Code generated by gen_decorator.go; DO NOT EDIT.\n\n")
	b.WriteString("package main\n\nimport \"github.com/tapas-sim/tapas/internal/sim\"\n\n")
	b.WriteString("// combine returns p with exactly the extension hooks named by mask.\n")
	b.WriteString("func combine(mask uint8, p *tracedPolicy, i initHook, r routerHook, a admitterHook, s schedulerHook, t sloTunableHook, g govTunableHook) sim.Policy {\n")
	b.WriteString("\tswitch mask {\n")
	for m := 1; m < 1<<len(hooks); m++ {
		var labels, types, vals []string
		types = append(types, "*tracedPolicy")
		vals = append(vals, "p")
		for bit, h := range hooks {
			if m>>bit&1 == 1 {
				labels = append(labels, h.mask)
				types = append(types, h.typ)
				vals = append(vals, h.val)
			}
		}
		fmt.Fprintf(&b, "\tcase %s:\n\t\treturn struct{ %s }{%s}\n",
			strings.Join(labels, " | "), strings.Join(types, "; "), strings.Join(vals, ", "))
	}
	b.WriteString("\t}\n\treturn p\n}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("decorator_gen.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}
