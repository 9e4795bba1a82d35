// Command milcheck statically verifies MIL programs without running
// them: symbol resolution, BAT column type inference through every
// kernel operator, dead code, and PARALLEL-block safety (the Fig. 4
// pattern). It is the batch face of the same analyzer behind the
// server's CHECK command.
//
// Usage:
//
//	milcheck [-strict] <file.mil | dir> ...
//
// Directories are walked recursively for .mil files. Diagnostics print
// as file:line:col lines. The exit status is 1 when any file has
// errors (with -strict, warnings too), 2 on usage or I/O problems.
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"cobra/internal/milcheck"
)

func main() {
	strict := flag.Bool("strict", false, "treat warnings as failures")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: milcheck [-strict] <file.mil | dir> ...")
		os.Exit(2)
	}
	files, err := collect(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "milcheck:", err)
		os.Exit(2)
	}
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "milcheck: no .mil files found")
		os.Exit(2)
	}
	errs, warns := lintFiles(files, os.Stdout)
	if errs > 0 || (*strict && warns > 0) {
		os.Exit(1)
	}
}

// collect expands the argument list into .mil files, walking
// directories recursively.
func collect(args []string) ([]string, error) {
	var files []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".mil") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

// lintFiles checks each file and prints its diagnostics, returning the
// total error and warning counts. Files check standalone: the
// extension operations carry their signatures, and bat() resolves only
// names the program itself registers.
func lintFiles(files []string, w io.Writer) (errs, warns int) {
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", file, err)
			errs++
			continue
		}
		diags, err := milcheck.CheckSource(string(src), &milcheck.Options{
			Funcs: milcheck.ExtensionSigs(),
		})
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", file, err)
			errs++
			continue
		}
		for _, d := range diags {
			fmt.Fprintf(w, "%s:%s\n", file, d)
			if d.Severity == milcheck.Error {
				errs++
			} else {
				warns++
			}
		}
	}
	return errs, warns
}
