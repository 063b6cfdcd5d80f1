"""Clique-counting substrate for the TDS / kCLiDS density metrics.

``local`` enumerates k-cliques (triangles are ``k = 3``) with a
degree-ordered search (the kCLIST approach of Danisch et al.). The Spark
engine lists the same cliques itself, with DataFrame self-joins
(``repro.core.spark_engine.cliques_df``).
"""
from repro.cliques.local import count_per_vertex, enumerate_cliques

__all__ = ["enumerate_cliques", "count_per_vertex"]
