// Command sr5-asm assembles SR32 assembly into a word-hex listing or a
// little-endian binary image.
//
// Usage:
//
//	sr5-asm [-o out.bin] [-format hex|bin|list] prog.s
//
// An output file is replaced whole (atomicfile.Write): a failed run,
// including one with an unknown format, leaves an existing file as it was.
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"

	"lockstep/internal/asm"
	"lockstep/internal/atomicfile"
	"lockstep/internal/isa"
)

func main() {
	var (
		out    = flag.String("o", "-", "output path (\"-\" for stdout)")
		format = flag.String("format", "list", "output format: hex, bin or list")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sr5-asm [-o out] [-format hex|bin|list] prog.s")
		os.Exit(2)
	}
	if *format != "bin" && *format != "hex" && *format != "list" {
		fmt.Fprintf(os.Stderr, "sr5-asm: unknown format %q\n", *format)
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *out, *format); err != nil {
		fmt.Fprintln(os.Stderr, "sr5-asm:", err)
		os.Exit(1)
	}
}

// run assembles the source file src and writes it in format (bin, hex or
// list) to out, "-" meaning stdout.
func run(src, out, format string) error {
	text, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	prog, err := asm.Assemble(string(text))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	switch format {
	case "bin":
		for _, word := range prog.Words {
			buf.Write(binary.LittleEndian.AppendUint32(buf.AvailableBuffer(), word))
		}
	case "hex":
		for _, word := range prog.Words {
			fmt.Fprintf(&buf, "%08x\n", word)
		}
	case "list":
		fmt.Fprintf(&buf, "; origin 0x%x, entry 0x%x, %d words\n",
			prog.Origin, prog.Entry, len(prog.Words))
		for i, word := range prog.Words {
			addr := prog.Origin + uint32(i*4)
			fmt.Fprintf(&buf, "%08x: %08x  %s\n", addr, word, isa.Disassemble(isa.Decode(word)))
		}
	}
	if out == "-" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	return atomicfile.Write(out, buf.Bytes())
}
