package kg

import (
	"strconv"
	"strings"

	"emblookup/internal/mathx"
	"emblookup/internal/strutil"
)

// Profile selects the statistical flavour of a generated knowledge graph.
// The paper evaluates on Wikidata and DBPedia; the two profiles differ in
// label style (DBPedia labels carry disambiguation suffixes more often) and
// alias richness (Wikidata has more skos:altLabel aliases per entity).
type Profile int

const (
	// WikidataProfile mimics Wikidata: alias-rich, clean labels.
	WikidataProfile Profile = iota
	// DBPediaProfile mimics DBPedia: fewer aliases, occasional
	// parenthesized disambiguation suffixes on labels.
	DBPediaProfile
)

// GeneratorConfig controls synthetic graph generation. The zero value is not
// useful; start from DefaultGeneratorConfig.
type GeneratorConfig struct {
	Profile  Profile
	Entities int    // total entity count
	Seed     uint64 // RNG seed; equal configs generate identical graphs

	// AmbiguityRate is the probability that a new entity reuses the label
	// of an existing entity of another type (homonyms such as the many
	// cities named Berlin).
	AmbiguityRate float64

	// FactsPerEntity is the mean number of outgoing relation facts.
	FactsPerEntity int
}

// DefaultGeneratorConfig returns a config for the given profile sized to n
// entities.
func DefaultGeneratorConfig(p Profile, n int) GeneratorConfig {
	return GeneratorConfig{
		Profile:        p,
		Entities:       n,
		Seed:           42,
		AmbiguityRate:  0.02,
		FactsPerEntity: 3,
	}
}

// Schema holds the type and property IDs created by Generate so downstream
// code (table generation, the repair task) can refer to them by name.
type Schema struct {
	Root, Place, Agent, Work                  TypeID
	Country, City, River                      TypeID
	Person, Organization, Company, University TypeID
	Film, Book                                TypeID
	CapitalOf, LocatedIn, FlowsThrough        PropID
	BornIn, CitizenOf, WorksFor, StudiedAt    PropID
	HeadquarteredIn, DirectedBy, AuthoredBy   PropID
	Population, FoundedYear                   PropID
}

// Generate builds a deterministic synthetic knowledge graph. Entities are
// distributed over the type taxonomy with fixed proportions, every entity
// receives aliases in the styles real KGs exhibit (abbreviations,
// cross-lingual names, long and short forms, orthographic variants), and
// relation facts connect entities according to the property schema.
func Generate(cfg GeneratorConfig) (*Graph, *Schema) {
	rng := mathx.NewRNG(cfg.Seed)
	names := &nameGen{rng: rng.Split()}
	name := "synthetic-wikidata"
	if cfg.Profile == DBPediaProfile {
		name = "synthetic-dbpedia"
	}
	g := NewGraph(name)
	s := buildSchema(g)

	// Type mix loosely mirrors the entity classes the SemTab tables draw
	// from: places and people dominate, with organizations and works behind.
	counts := typeCounts(cfg.Entities)

	g.Entities = make([]Entity, 0, cfg.Entities)
	g.Facts = make([]Fact, 0, cfg.Entities*3)
	var countries, cities, rivers, people, companies, universities []EntityID
	usedLabels := make(map[string]EntityID, cfg.Entities)

	addEntity := func(label string, t TypeID, translatable bool) EntityID {
		// Occasionally reuse an existing label on a different type to
		// create the ambiguity that makes disambiguation non-trivial.
		if prev, ok := usedLabels[strings.ToLower(label)]; ok && rng.Bool(0.5) {
			_ = prev // keep the duplicate label: genuine homonym
		} else if rng.Bool(cfg.AmbiguityRate) && len(g.Entities) > 10 {
			donor := g.Entities[rng.Intn(len(g.Entities))]
			if !hasType(donor.Types, t) {
				label = donor.Label
			}
		}
		aliases := makeAliases(label, t, s, cfg.Profile, rng, translatable)
		if cfg.Profile == DBPediaProfile && rng.Bool(0.2) {
			label = label + " (" + g.TypeName(t) + ")"
		}
		id := g.AddEntity(label, aliases, t)
		usedLabels[strings.ToLower(label)] = id
		return id
	}

	for i := 0; i < counts.countries; i++ {
		countries = append(countries, addEntity(names.country(), s.Country, true))
	}
	for i := 0; i < counts.cities; i++ {
		cities = append(cities, addEntity(names.city(), s.City, true))
	}
	for i := 0; i < counts.rivers; i++ {
		rivers = append(rivers, addEntity(names.river(), s.River, false))
	}
	for i := 0; i < counts.people; i++ {
		people = append(people, addEntity(names.person(), s.Person, false))
	}
	for i := 0; i < counts.companies; i++ {
		companies = append(companies, addEntity(names.company(), s.Company, false))
	}
	for i := 0; i < counts.universities; i++ {
		place := names.stem()
		if len(cities) > 0 && rng.Bool(0.5) {
			place = strings.SplitN(g.Label(cities[rng.Intn(len(cities))]), " ", 2)[0]
		}
		universities = append(universities, addEntity(names.university(place), s.University, false))
	}
	for i := 0; i < counts.films; i++ {
		place := names.stem()
		addEntity(names.film(place), s.Film, false)
	}
	for i := 0; i < counts.books; i++ {
		addEntity(names.book(names.stem()), s.Book, false)
	}

	// Relation facts. Each group of facts respects the property schema so
	// that the disambiguation and repair tasks can exploit graph structure.
	pick := func(ids []EntityID) EntityID {
		if len(ids) == 0 {
			return NoEntity
		}
		return ids[rng.Zipf(len(ids), 1.1)]
	}
	for _, c := range cities {
		if co := pick(countries); co != NoEntity {
			g.AddFact(c, s.LocatedIn, co)
		}
	}
	// One capital per country: assign distinct cities round-robin.
	for i, co := range countries {
		if len(cities) == 0 {
			break
		}
		g.AddFact(cities[i%len(cities)], s.CapitalOf, co)
	}
	for _, r := range rivers {
		for k := 0; k < 1+rng.Intn(2); k++ {
			if co := pick(countries); co != NoEntity {
				g.AddFact(r, s.FlowsThrough, co)
			}
		}
	}
	for _, p := range people {
		if c := pick(cities); c != NoEntity {
			g.AddFact(p, s.BornIn, c)
		}
		if co := pick(countries); co != NoEntity {
			g.AddFact(p, s.CitizenOf, co)
		}
		if rng.Bool(0.6) {
			if em := pick(companies); em != NoEntity {
				g.AddFact(p, s.WorksFor, em)
			}
		}
		if rng.Bool(0.4) {
			if u := pick(universities); u != NoEntity {
				g.AddFact(p, s.StudiedAt, u)
			}
		}
	}
	for _, c := range companies {
		if ci := pick(cities); ci != NoEntity {
			g.AddFact(c, s.HeadquarteredIn, ci)
		}
		g.AddLiteralFact(c, s.FoundedYear, strconv.Itoa(1850+rng.Intn(170)))
	}
	for i := range g.Entities {
		id := EntityID(i)
		if hasType(g.Entities[i].Types, s.Film) {
			if d := pick(people); d != NoEntity {
				g.AddFact(id, s.DirectedBy, d)
			}
		}
		if hasType(g.Entities[i].Types, s.Book) {
			if a := pick(people); a != NoEntity {
				g.AddFact(id, s.AuthoredBy, a)
			}
		}
	}
	for _, co := range countries {
		g.AddLiteralFact(co, s.Population, strconv.Itoa(100_000+rng.Intn(90_000_000)))
	}
	for _, ci := range cities {
		g.AddLiteralFact(ci, s.Population, strconv.Itoa(1_000+rng.Intn(9_000_000)))
	}

	return g, s
}

type classCounts struct {
	countries, cities, rivers, people, companies, universities, films, books int
}

func typeCounts(n int) classCounts {
	c := classCounts{
		countries:    n * 4 / 100,
		cities:       n * 22 / 100,
		rivers:       n * 6 / 100,
		people:       n * 34 / 100,
		companies:    n * 12 / 100,
		universities: n * 6 / 100,
		films:        n * 10 / 100,
	}
	c.books = n - c.countries - c.cities - c.rivers - c.people - c.companies - c.universities - c.films
	if c.countries == 0 {
		c.countries = 1
	}
	if c.cities == 0 {
		c.cities = 1
	}
	return c
}

func buildSchema(g *Graph) *Schema {
	s := &Schema{}
	s.Root = g.AddType("entity", NoType)
	s.Place = g.AddType("place", s.Root)
	s.Agent = g.AddType("agent", s.Root)
	s.Work = g.AddType("work", s.Root)
	s.Country = g.AddType("country", s.Place)
	s.City = g.AddType("city", s.Place)
	s.River = g.AddType("river", s.Place)
	s.Person = g.AddType("person", s.Agent)
	s.Organization = g.AddType("organization", s.Agent)
	s.Company = g.AddType("company", s.Organization)
	s.University = g.AddType("university", s.Organization)
	s.Film = g.AddType("film", s.Work)
	s.Book = g.AddType("book", s.Work)

	s.CapitalOf = g.AddProperty("capitalOf", s.City, s.Country)
	s.LocatedIn = g.AddProperty("locatedIn", s.City, s.Country)
	s.FlowsThrough = g.AddProperty("flowsThrough", s.River, s.Country)
	s.BornIn = g.AddProperty("bornIn", s.Person, s.City)
	s.CitizenOf = g.AddProperty("citizenOf", s.Person, s.Country)
	s.WorksFor = g.AddProperty("worksFor", s.Person, s.Company)
	s.StudiedAt = g.AddProperty("studiedAt", s.Person, s.University)
	s.HeadquarteredIn = g.AddProperty("headquarteredIn", s.Company, s.City)
	s.DirectedBy = g.AddProperty("directedBy", s.Film, s.Person)
	s.AuthoredBy = g.AddProperty("authoredBy", s.Book, s.Person)
	s.Population = g.AddProperty("population", s.Place, NoType)
	s.FoundedYear = g.AddProperty("foundedYear", s.Organization, NoType)
	return s
}

// makeAliases builds the alias set for a label. Alias styles follow Section
// III-B of the paper: synonyms from altLabel-like sources (here: long and
// short forms), cross-lingual names, abbreviations, and spelling variants.
// The counts reproduce the statistic the paper relies on in Section IV-E:
// at least 3 aliases for the vast majority of entities, fewer than 50 for
// 95% of them.
func makeAliases(label string, t TypeID, s *Schema, p Profile, rng *mathx.RNG, translatable bool) []string {
	var aliases []string
	add := func(a string) {
		if a == "" || strings.EqualFold(a, label) {
			return
		}
		for _, prev := range aliases {
			if strings.EqualFold(prev, a) {
				return
			}
		}
		aliases = append(aliases, a)
	}

	// Long form (Germany -> Federal Republic of Germany).
	switch t {
	case s.Country:
		forms := []string{"Republic of ", "Kingdom of ", "Federal Republic of ", "United States of "}
		add(forms[rng.Intn(len(forms))] + label)
	case s.City:
		add("City of " + label)
	case s.Company:
		add(strings.TrimSuffix(strings.TrimSuffix(label, " Corp"), " Group") + " Incorporated")
	case s.Person:
		parts := strings.SplitN(label, " ", 2)
		if len(parts) == 2 {
			add(parts[0] + " " + title(strings.ToLower(parts[1][:1])) + ". " + parts[1]) // middle-initial style
		}
	}

	// Abbreviation (European Union -> EU). Short initialisms collide
	// across entities (as they do in real KGs), so only a minority of
	// entities carry one.
	if abbr := strutil.Abbreviate(label); len(abbr) >= 3 && rng.Bool(0.4) {
		add(abbr)
	}

	// Cross-lingual names. Nearly every real Wikidata entity carries
	// labels in other languages that share no surface form with the
	// English label (Germany → Deutschland); places get several, other
	// classes at least one.
	nLang := 1
	if translatable {
		nLang = 1 + rng.Intn(int(numLanguages))
	}
	firstLang := rng.Intn(int(numLanguages))
	for l := 0; l < nLang; l++ {
		add(pseudoTranslate(label, language((firstLang+l)%int(numLanguages))))
	}

	// Short form (drop a token) for multi-token labels.
	toks := strings.Fields(label)
	if len(toks) > 2 {
		add(strings.Join(toks[1:], " "))
	}

	// Orthographic variant.
	if rng.Bool(0.7) {
		add(altSpelling(label, rng))
	}

	// Wikidata is alias-richer than DBPedia.
	extra := 0
	if p == WikidataProfile {
		extra = rng.Intn(3)
	}
	for i := 0; i < extra; i++ {
		add(altSpelling(label, rng))
	}
	return aliases
}

func hasType(types []TypeID, t TypeID) bool {
	for _, x := range types {
		if x == t {
			return true
		}
	}
	return false
}
