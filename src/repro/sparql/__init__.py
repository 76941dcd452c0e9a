"""SPARQL-subset query engine.

The WoD's query endpoint language (survey Section 2): parse with
:func:`parse_query`, evaluate with :class:`QueryEngine` or the one-shot
:func:`query` helper against any triple source.

>>> from repro.rdf import Graph, parse_turtle
>>> from repro.sparql import query
>>> g = Graph(parse_turtle('''
...     @prefix foaf: <http://xmlns.com/foaf/0.1/> .
...     <http://ex.org/a> foaf:name "Alice" ; foaf:age 30 .
... '''))
>>> result = query(g, 'SELECT ?name WHERE { ?s foaf:name ?name }')
>>> result.values("name")
['Alice']
"""

from .cached import CachedQueryEngine
from .eval import EvalStats, ExplainNode, QueryEngine, query
from .lexer import SparqlSyntaxError, tokenize
from .nodes import (
    AskQuery,
    ConstructQuery,
    DescribeQuery,
    Query,
    SelectQuery,
)
from .optimizer import CardinalityEstimator, estimate_cardinality
from .parser import parse_query
from .plan import optimize_plan, plan_digest, query_digest
from .vectorized import VectorizedBGP
from .results import (
    SelectResult,
    ask_to_sparql_json,
    parse_sparql_json,
    term_from_json,
    term_to_json,
    to_csv,
    to_sparql_json,
    to_tsv,
)

__all__ = [
    "AskQuery",
    "CachedQueryEngine",
    "CardinalityEstimator",
    "ConstructQuery",
    "DescribeQuery",
    "EvalStats",
    "ExplainNode",
    "Query",
    "QueryEngine",
    "SelectQuery",
    "SelectResult",
    "SparqlSyntaxError",
    "VectorizedBGP",
    "ask_to_sparql_json",
    "estimate_cardinality",
    "optimize_plan",
    "parse_query",
    "parse_sparql_json",
    "plan_digest",
    "query",
    "query_digest",
    "term_from_json",
    "term_to_json",
    "to_csv",
    "to_sparql_json",
    "to_tsv",
    "tokenize",
]
