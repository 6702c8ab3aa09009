package corpus

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"joinopt/internal/relation"
)

// jsonDB is the serialized form of a database.
type jsonDB struct {
	Name  string         `json:"name"`
	Docs  []jsonDocument `json:"docs"`
	Golds []jsonGold     `json:"golds"`
}

type jsonDocument struct {
	ID       int           `json:"id"`
	Text     string        `json:"text"`
	Mentions []jsonMention `json:"mentions,omitempty"`
}

type jsonMention struct {
	Task string `json:"task"`
	A1   string `json:"a1"`
	A2   string `json:"a2"`
	Good bool   `json:"good"`
}

type jsonGold struct {
	Task   string      `json:"task"`
	Schema jsonSchema  `json:"schema"`
	Good   [][2]string `json:"good"`
	Bad    [][2]string `json:"bad"`
}

type jsonSchema struct {
	Name  string `json:"name"`
	Attr1 string `json:"attr1"`
	Attr2 string `json:"attr2"`
}

// Save writes the database (documents, annotations, and gold sets) as JSON.
func (db *DB) Save(w io.Writer) error {
	out := jsonDB{Name: db.Name}
	for _, d := range db.Docs {
		jd := jsonDocument{ID: d.ID, Text: d.Text}
		for _, m := range d.Mentions {
			jd.Mentions = append(jd.Mentions, jsonMention{Task: m.Task, A1: m.Tuple.A1, A2: m.Tuple.A2, Good: m.Good})
		}
		out.Docs = append(out.Docs, jd)
	}
	for _, task := range db.Tasks() {
		g := db.golds[task]
		jg := jsonGold{
			Task:   task,
			Schema: jsonSchema{Name: g.Schema.Name, Attr1: g.Schema.Attr1, Attr2: g.Schema.Attr2},
		}
		for t := range g.Good {
			jg.Good = append(jg.Good, [2]string{t.A1, t.A2})
		}
		for t := range g.Bad {
			jg.Bad = append(jg.Bad, [2]string{t.A1, t.A2})
		}
		out.Golds = append(out.Golds, jg)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load reads a database previously written by Save and recomputes task
// statistics.
func Load(r io.Reader) (*DB, error) {
	var in jsonDB
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("corpus: decoding database: %w", err)
	}
	db := &DB{
		Name:  in.Name,
		golds: map[string]*relation.Gold{},
		stats: map[string]*TaskStats{},
	}
	db.Docs = make([]*Document, len(in.Docs))
	for i, jd := range in.Docs {
		d := &Document{ID: jd.ID, Text: jd.Text}
		for _, m := range jd.Mentions {
			d.Mentions = append(d.Mentions, Mention{
				Task:  m.Task,
				Tuple: relation.Tuple{A1: m.A1, A2: m.A2},
				Good:  m.Good,
			})
		}
		db.Docs[i] = d
	}
	for _, jg := range in.Golds {
		g := relation.NewGold(relation.Schema{Name: jg.Schema.Name, Attr1: jg.Schema.Attr1, Attr2: jg.Schema.Attr2})
		for _, t := range jg.Good {
			g.AddGood(relation.Tuple{A1: t[0], A2: t[1]})
		}
		for _, t := range jg.Bad {
			g.AddBad(relation.Tuple{A1: t[0], A2: t[1]})
		}
		db.golds[jg.Task] = g
		db.stats[jg.Task] = computeStats(jg.Task, db.Docs)
	}
	return db, nil
}

// SaveFile writes the database to path.
func (db *DB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("corpus: creating %s: %w", path, err)
	}
	defer f.Close()
	if err := db.Save(f); err != nil {
		return err
	}
	return f.Close()
}
