// Command paris-vet is the repo's custom static-analysis multichecker. It
// bundles the four invariant analyzers from internal/analysis/... and runs
// in two modes:
//
//   - as a `go vet` tool: `go vet -vettool=$(which paris-vet) ./...`. The go
//     command drives it with the unitchecker protocol — a JSON vet.cfg per
//     package unit, gc export data for dependencies — which is what CI uses
//     (see .github/workflows/ci.yml, lint job);
//   - standalone: `paris-vet ./...` typechecks the module from source with
//     the internal/analysis/load loader. Slower and offline-friendly; handy
//     for running a single analyzer with -only=<name>.
//
// Exit status: 0 clean, 1 driver error, 2 diagnostics reported (matching
// x/tools' unitchecker convention, which `go vet` expects).
//
// Findings are suppressed only by a justified comment:
//
//	//lint:ignore paris/<analyzer> <reason why the invariant holds anyway>
//
// on the flagged line or the line above. A suppression without a reason
// does not suppress — the justification is the point.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"strings"

	"github.com/paris-kv/paris/internal/analysis"
	"github.com/paris-kv/paris/internal/analysis/ctxdeadline"
	"github.com/paris-kv/paris/internal/analysis/lockhold"
	"github.com/paris-kv/paris/internal/analysis/monotonicts"
	"github.com/paris-kv/paris/internal/analysis/poolescape"
)

// analyzers is the multichecker's suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	monotonicts.Analyzer,
	poolescape.Analyzer,
	lockhold.Analyzer,
	ctxdeadline.Analyzer,
}

func main() {
	args := os.Args[1:]

	// `go vet` handshakes: tool identity for the build cache, then the
	// tool's flag inventory.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V=") {
		printVersion()
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		// No tool-level flags are exposed to `go vet`.
		fmt.Println("[]")
		return
	}

	fs := flag.NewFlagSet("paris-vet", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paris-vet [-only=a,b] <packages>   (standalone)\n")
		fmt.Fprintf(os.Stderr, "       go vet -vettool=$(which paris-vet) <packages>\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(1)
	}
	suite := selectAnalyzers(*only)
	rest := fs.Args()

	// Unitchecker mode: the go command passes exactly one *.cfg argument.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		os.Exit(unitcheck(rest[0], suite))
	}
	if len(rest) == 0 {
		fs.Usage()
		os.Exit(1)
	}
	os.Exit(standalone(rest, suite))
}

func selectAnalyzers(only string) []*analysis.Analyzer {
	if only == "" {
		return analyzers
	}
	want := make(map[string]bool)
	for _, n := range strings.Split(only, ",") {
		want[strings.TrimPrefix(strings.TrimSpace(n), "paris/")] = true
	}
	var out []*analysis.Analyzer
	for _, a := range analyzers {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(os.Stderr, "paris-vet: -only=%q matches no analyzers\n", only)
		os.Exit(1)
	}
	return out
}

// printVersion answers `-V=full`. The go command embeds the line in its
// build cache key, so it must change whenever the tool binary does — hence
// the content hash of the executable itself.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	h := sha256.New()
	if f, err := os.Open(exe); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("paris-vet version devel buildID=%x\n", h.Sum(nil))
}

// report prints unsuppressed diagnostics in the file:line:col form the go
// command (and editors) expect, and returns the exit code.
func report(fset *token.FileSet, diags []analysis.Diagnostic) int {
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [paris/%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
