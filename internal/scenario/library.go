package scenario

import (
	"embed"
	"sort"
	"strings"
)

//go:embed library/*.json
var libraryFS embed.FS

// LibraryNames lists the shipped scenario names in sorted order.
func LibraryNames() []string {
	ents, err := libraryFS.ReadDir("library")
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// LibrarySource returns the raw document of a shipped scenario.
func LibrarySource(name string) ([]byte, error) {
	src, err := libraryFS.ReadFile("library/" + name + ".json")
	if err != nil {
		return nil, errAt(0, "", "no library scenario %q (have %s)", name, strings.Join(LibraryNames(), ", "))
	}
	return src, nil
}

// LoadLibrary parses and compiles a shipped scenario.
func LoadLibrary(name string) (*Program, error) {
	src, err := LibrarySource(name)
	if err != nil {
		return nil, err
	}
	return Load(src)
}
